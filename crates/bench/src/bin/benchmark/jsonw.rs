//! A minimal JSON object writer (the workspace vendors no serializer;
//! `ampc_bench::json::parse_json` is the reading half).

pub use ampc_runtime::driver::json_string as string;

/// A number with all its digits (Rust prints the shortest text that
/// reads back to the same `f64`); JSON has no NaN or infinity, so those
/// become 0.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// An object under construction, fields in insertion order.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Adds a field whose value is already JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        self.body.push_str(&string(key));
        self.body.push_str(": ");
        self.body.push_str(json);
        self
    }

    /// Adds a number.
    pub fn num(&mut self, key: &str, x: f64) -> &mut Obj {
        self.raw(key, &number(x))
    }

    /// Adds a string.
    pub fn str(&mut self, key: &str, s: &str) -> &mut Obj {
        self.raw(key, &string(s))
    }

    /// Adds a boolean.
    pub fn bool(&mut self, key: &str, b: bool) -> &mut Obj {
        self.raw(key, if b { "true" } else { "false" })
    }

    /// The finished object, on one line.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

/// A JSON array of already-encoded items.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampc_bench::json::parse_json;

    #[test]
    fn objects_round_trip_through_the_strict_parser() {
        let mut o = Obj::new();
        o.str("name", "a \"quoted\"\nline\\")
            .num("x", 0.1 + 0.2)
            .num("big", 16_777_216.0)
            .num("nan", f64::NAN)
            .bool("ok", true)
            .raw("list", &array(["1".to_string(), "2".to_string()]));
        let v = parse_json(&o.finish()).expect("parses");
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("a \"quoted\"\nline\\")
        );
        assert_eq!(v.get("x").unwrap().as_f64(), Some(0.1 + 0.2));
        assert_eq!(v.get("big").unwrap().as_u64(), Some(16_777_216));
        assert_eq!(v.get("nan").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(parse_json(&Obj::new().finish()).unwrap().get("x"), None);
    }
}
