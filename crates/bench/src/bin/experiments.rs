//! Experiment runner: regenerates every table/figure of the evaluation.
//!
//! ```text
//! experiments [all | e1 e2 …] [--quick] [--json DIR]
//! ```

use htims_bench::experiments::{self, ALL};
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_dir = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !a.starts_with("--") && (i == 0 || args[i - 1] != "--json"))
        .map(|(_, a)| a.clone())
        .collect();
    if ids.is_empty() || ids.iter().any(|a| a == "all") {
        ids = ALL.iter().map(|s| s.to_string()).collect();
    }
    // Refuse unknown flags and unknown (or retired) ids before anything
    // runs, so a stale script fails instead of running something else.
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--quick" | "--json"))
    {
        eprintln!("unknown flag {bad} (use --quick, --json <dir>)");
        std::process::exit(2);
    }
    if let Some(bad) = ids.iter().find(|id| !ALL.contains(&id.as_str())) {
        eprintln!("unknown experiment id: {bad} (known: {})", ALL.join(" "));
        std::process::exit(2);
    }

    for id in &ids {
        let start = std::time::Instant::now();
        let table = experiments::run(id, quick).expect("id checked against ALL");
        println!("{}", table.render());
        println!(
            "[{} completed in {:.2}s]\n",
            id,
            start.elapsed().as_secs_f64()
        );
        if let Some(dir) = &json_dir {
            std::fs::create_dir_all(dir).expect("create json dir");
            let path = format!("{dir}/{id}.json");
            let mut file = std::fs::File::create(&path).expect("create json file");
            file.write_all(table.to_json().as_bytes())
                .expect("write json");
        }
    }
}
