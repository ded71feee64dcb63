//! The `ampc-lint` command-line front end.
//!
//! ```text
//! ampc-lint [--root DIR] [--format text|json] [--json-out FILE] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error.
//! `--json-out FILE` writes the JSON report to a file *in addition* to
//! the chosen stdout format — the shape CI wants (text in the log, JSON
//! uploaded as an artifact) in one invocation. The whole workspace is
//! always linted: a finding may sit in a file the last edit did not
//! touch (a get in an unchanged helper that a new loop now reaches).

use ampc_lint::{lint_workspace, render_json, render_text, rules};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: ampc-lint [--root DIR] [--format text|json] [--json-out FILE] [--list-rules]\n\
     exit codes: 0 clean, 1 violations, 2 usage/io error"
        .to_string()
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "text".to_string();
    let mut json_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            // `--flag=value` or `--flag value`.
            if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
                Ok(v.to_string())
            } else {
                args.next().ok_or_else(|| format!("{name} needs a value"))
            }
        };
        match arg.split('=').next().unwrap_or("") {
            "--root" => match take("--root") {
                Ok(v) => root = PathBuf::from(v),
                Err(e) => return fail(&e),
            },
            "--format" => match take("--format") {
                Ok(v) if v == "text" || v == "json" => format = v,
                Ok(v) => return fail(&format!("unknown format {v:?}")),
                Err(e) => return fail(&e),
            },
            "--json-out" => match take("--json-out") {
                Ok(v) => json_out = Some(PathBuf::from(v)),
                Err(e) => return fail(&e),
            },
            "--list-rules" => {
                for r in rules::RULES {
                    println!("{:<32} {}", r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other:?}\n{}", usage())),
        }
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => return fail(&format!("cannot lint {}: {e}", root.display())),
    };
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, render_json(&report)) {
            return fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
    match format.as_str() {
        "json" => print!("{}", render_json(&report)),
        _ => print!("{}", render_text(&report)),
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("ampc-lint: {msg}");
    ExitCode::from(2)
}
