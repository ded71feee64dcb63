//! The deterministic wire codec for the socket substrate (DESIGN.md §12).
//!
//! When shards live in separate OS processes (the socket store),
//! values cross a Unix-domain socket as bytes. [`Wire`] is the codec
//! contract: a **deterministic, little-endian, length-prefixed**
//! encoding whose decode is the exact inverse (`decode ∘ encode = id`,
//! pinned by the round-trip property suite in `tests/wire_prop.rs`).
//! Determinism matters for more than correctness: the §3 contract says
//! outputs may not depend on the substrate, and a value that encoded
//! differently on two machines would make the shard servers'
//! byte-compare diagnostics (and any future content digests)
//! schedule-dependent.
//!
//! The impl set deliberately mirrors [`crate::measured::Measured`]: any
//! type the workspace stores in the DHT is both measurable (for
//! CommStats accounting) and wireable (for the socket substrate).
//! Containers are length-prefixed with a `u64`; `Option` is a one-byte
//! tag plus the payload. The encoded size is *not* required to equal
//! `Measured::size_bytes` — accounting charges the model's simulated
//! sizes, the wire carries whatever the codec needs — but for the
//! fixed-size primitives the two coincide.

/// Deterministic byte codec for values crossing the socket substrate.
///
/// Laws (pinned by `tests/wire_prop.rs`):
/// * round-trip: `Wire::wire_decode(&mut &encode(v)[..]) == Some(v)`
///   with the buffer fully consumed;
/// * determinism: equal values encode to equal bytes;
/// * self-framing: decode consumes exactly the bytes encode produced,
///   so values can be concatenated back-to-back in a batch frame.
pub trait Wire {
    /// Appends the encoding of `self` to `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `buf`, advancing it past the
    /// consumed bytes. Returns `None` on truncated or malformed input
    /// (never panics — the transport treats that as a corrupt frame).
    fn wire_decode(buf: &mut &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Encodes a value into a fresh buffer (test/driver convenience).
pub fn encode_to_vec<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire_encode(&mut out);
    out
}

/// Splits `n` bytes off the front of `buf`, or `None` if it is short.
#[inline]
fn take<'b>(buf: &mut &'b [u8], n: usize) -> Option<&'b [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Some(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {
        $(impl Wire for $t {
            #[inline]
            fn wire_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
                let raw = take(buf, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(raw.try_into().ok()?))
            }
        })*
    };
}

impl_wire_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// `usize`/`isize` travel as 8 bytes regardless of host width, so the
/// format does not depend on the machine that sealed the generation.
macro_rules! impl_wire_as_64 {
    ($($t:ty => $wide:ty),*) => {
        $(impl Wire for $t {
            #[inline]
            fn wire_encode(&self, out: &mut Vec<u8>) {
                (*self as $wide).wire_encode(out);
            }

            #[inline]
            fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
                <$t>::try_from(<$wide>::wire_decode(buf)?).ok()
            }
        })*
    };
}

impl_wire_as_64!(usize => u64, isize => i64);

impl Wire for bool {
    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for () {
    #[inline]
    fn wire_encode(&self, _out: &mut Vec<u8>) {}

    #[inline]
    fn wire_decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

/// Tuples encode their fields in order.
macro_rules! impl_wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            #[inline]
            fn wire_encode(&self, out: &mut Vec<u8>) {
                $(self.$i.wire_encode(out);)+
            }

            #[inline]
            fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
                Some(($($t::wire_decode(buf)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A 0, B 1);
impl_wire_tuple!(A 0, B 1, C 2);

/// Length-prefixed sequence encoding shared by `Vec` and `Box<[T]>`.
#[inline]
fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u64).wire_encode(out);
    for item in items {
        item.wire_encode(out);
    }
}

#[inline]
fn decode_seq<T: Wire>(buf: &mut &[u8]) -> Option<Vec<T>> {
    let len = usize::wire_decode(buf)?;
    // A truncated buffer cannot hold more elements than bytes; reject
    // absurd prefixes before reserving (each element is ≥ 1 byte except
    // `()`, which no container in the workspace stores).
    let mut items = Vec::with_capacity(len.min(buf.len().max(16)));
    for _ in 0..len {
        items.push(T::wire_decode(buf)?);
    }
    Some(items)
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }

    #[inline]
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        decode_seq(buf)
    }
}

impl<T: Wire> Wire for Box<[T]> {
    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }

    #[inline]
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        decode_seq(buf).map(Vec::into_boxed_slice)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_encode(out);
            }
        }
    }

    #[inline]
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::wire_decode(buf)? {
            0 => Some(None),
            1 => Some(Some(T::wire_decode(buf)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    #[inline]
    fn wire_encode(&self, out: &mut Vec<u8>) {
        (**self).wire_encode(out);
    }

    #[inline]
    fn wire_decode(buf: &mut &[u8]) -> Option<Self> {
        T::wire_decode(buf).map(std::sync::Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_to_vec(&v);
        let mut buf = &bytes[..];
        let back = T::wire_decode(&mut buf).expect("decodes");
        assert_eq!(back, v);
        assert!(buf.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0x1234u16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(u128::MAX - 7);
        round_trip(-1i64);
        round_trip(i32::MIN);
        round_trip(3.5f64);
        round_trip(true);
        round_trip(false);
        round_trip(());
        round_trip(usize::MAX);
        round_trip(-9isize);
    }

    #[test]
    fn containers_round_trip() {
        round_trip(Vec::<u64>::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(vec![vec![1u64, 2], vec![], vec![3]]);
        round_trip(vec![9u64; 1000].into_boxed_slice());
        round_trip(Some(7u64));
        round_trip(None::<u64>);
        round_trip((1u64, vec![2u32, 3]));
        round_trip((1u8, 2u64, vec![3u32]));
    }

    #[test]
    fn encoding_is_deterministic_and_self_framing() {
        let a = encode_to_vec(&vec![5u64, 6, 7]);
        let b = encode_to_vec(&vec![5u64, 6, 7]);
        assert_eq!(a, b);
        // Two values concatenated decode back as two values.
        let mut stream = encode_to_vec(&42u64);
        vec![1u32, 2].wire_encode(&mut stream);
        let mut buf = &stream[..];
        assert_eq!(u64::wire_decode(&mut buf), Some(42));
        assert_eq!(Vec::<u32>::wire_decode(&mut buf), Some(vec![1, 2]));
        assert!(buf.is_empty());
    }

    #[test]
    fn truncated_and_malformed_inputs_decode_to_none() {
        let bytes = encode_to_vec(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let mut buf = &bytes[..cut];
            assert_eq!(Vec::<u64>::wire_decode(&mut buf), None, "cut {cut}");
        }
        // Bad Option/bool tags.
        let mut buf: &[u8] = &[2u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Option::<u64>::wire_decode(&mut buf), None);
        let mut buf: &[u8] = &[9u8];
        assert_eq!(bool::wire_decode(&mut buf), None);
        // Absurd length prefix on a short buffer.
        let mut long = Vec::new();
        (u64::MAX).wire_encode(&mut long);
        let mut buf = &long[..];
        assert_eq!(Vec::<u64>::wire_decode(&mut buf), None);
    }

    #[test]
    fn usize_is_width_independent() {
        let mut out = Vec::new();
        7usize.wire_encode(&mut out);
        assert_eq!(out.len(), 8, "usize always travels as 8 bytes");
    }
}
