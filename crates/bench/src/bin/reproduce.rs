//! Runs the paper's figures and tables and checks their claims:
//! `reproduce` runs every spec, `reproduce fig2 table2` the named ones.
//! Each spec prints its tables and one `PASS`/`FAIL` line per claim and
//! writes `target/experiments/<id>.json`; the run ends by writing the
//! verdicts to `target/experiments/ledger.md`. A failing claim is a
//! finding, not an error: the exit status is non-zero only for an unknown
//! id, a bad setting, or an artifact that could not be written.

use std::path::Path;
use std::process::ExitCode;

use hamlet_bench::specs::{find, Spec, SPECS};
use hamlet_bench::{ledger, write_artifact, Settings};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("reproduce: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let settings =
        Settings::parse(|name| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned()))?;
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let specs: Vec<&Spec> = if ids.is_empty() {
        SPECS.iter().collect()
    } else {
        let known: Vec<&str> = SPECS.iter().map(|s| s.id).collect();
        ids.iter()
            .map(|id| find(id).ok_or(format!("unknown spec {id:?}; known: {}", known.join(" "))))
            .collect::<Result<_, _>>()?
    };
    let dir = Path::new("target/experiments");
    println!("settings: {settings}");
    let mut outcomes = Vec::with_capacity(specs.len());
    for spec in specs {
        let out = (spec.run)(&settings);
        println!("\n{}", spec.title);
        for table in &out.tables {
            print!("{}", table.render());
        }
        println!();
        for claim in &out.claims {
            println!("{}", claim.line(spec.id));
        }
        let json = serde_json::to_string_pretty(&out.json).map_err(|e| e.to_string())?;
        write_artifact(dir, &format!("{}.json", spec.id), &json)?;
        outcomes.push((spec, out.claims));
    }
    write_artifact(dir, "ledger.md", &ledger::render(&settings, &outcomes))
}
