//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result object as the last line of
//! standard output. Exits 1 when an answer was wrong or an op failed, 2 on
//! bad arguments or an I/O error (without printing a result).

use bimst_perfbench::{cli, e2e, ladder, report};

fn main() {
    let opts = match cli::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let result = std::fs::create_dir_all(&opts.scratch).and_then(|()| {
        if opts.trace {
            ladder::run(&opts)
        } else {
            e2e::run(&opts)
        }
    });
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", report::provenance(&opts));
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}
