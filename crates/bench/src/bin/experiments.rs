//! Command-line experiment runner.
//!
//! ```text
//! experiments all --scale small
//! experiments fig12 table1 thm3 --scale medium --json results.json
//! ```
//!
//! Prints each table in the paper's row/series layout; `--json` also
//! writes machine-readable output.

#![forbid(unsafe_code)]

use pr_bench::{experiments, Scale, Table};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut json_path: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("expected small|medium|full after --scale"));
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("expected a path after --json")),
                );
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    if names.is_empty() {
        usage();
        return;
    }
    if names.iter().any(|n| n == "all") {
        names = experiments::all_names()
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let mut all_tables: Vec<Table> = Vec::new();
    for name in &names {
        eprintln!("[experiments] running {name} at {scale:?} scale…");
        let start = std::time::Instant::now();
        match experiments::run(name, scale) {
            Some(tables) => {
                for t in &tables {
                    println!("{t}");
                }
                eprintln!(
                    "[experiments] {name} done in {:.1}s",
                    start.elapsed().as_secs_f64()
                );
                all_tables.extend(tables);
            }
            None => {
                eprintln!("[experiments] unknown experiment '{name}'");
                eprintln!("known: all, {}", experiments::all_names().join(", "));
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = json_path {
        let json = pr_bench::table::tables_to_json(&all_tables);
        let mut f = std::fs::File::create(&path).expect("create json file");
        f.write_all(json.as_bytes()).expect("write json");
        eprintln!("[experiments] wrote {path}");
    }
}

fn usage() {
    eprintln!(
        "usage: experiments <name>... [--scale small|medium|full] [--json out.json]\n\
         names: all, {}",
        experiments::all_names().join(", ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
