//! `cqcount` — command-line front end.
//!
//! ```text
//! cqcount count     <program.cq> [--alg auto|brute|join|pipeline|hybrid|dm] [--max-width K]
//! cqcount analyze   <program.cq> [--max-width K]
//! cqcount enumerate <program.cq> [--limit N] [--max-width K]
//! cqcount help
//! ```
//!
//! A program file contains facts and one rule (see the README's text
//! format). Example:
//!
//! ```text
//! edge(a, b). edge(b, c). edge(a, c).
//! ans(X) :- edge(X, Y), edge(Y, Z).
//! ```

use cqcount::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cqcount count     <program.cq> [--alg auto|brute|join|pipeline|hybrid|dm] [--max-width K] [--explain]
  cqcount analyze   <program.cq> [--max-width K]
  cqcount enumerate <program.cq> [--limit N] [--max-width K]";

struct Opts {
    file: String,
    alg: String,
    max_width: usize,
    limit: Option<usize>,
    explain: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        file: String::new(),
        alg: "auto".into(),
        max_width: 3,
        limit: None,
        explain: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--alg" => {
                opts.alg = it.next().ok_or("--alg needs a value")?.clone();
            }
            "--max-width" => {
                opts.max_width = it
                    .next()
                    .ok_or("--max-width needs a value")?
                    .parse()
                    .map_err(|_| "--max-width must be a number")?;
            }
            "--explain" => {
                opts.explain = true;
            }
            "--limit" => {
                opts.limit = Some(
                    it.next()
                        .ok_or("--limit needs a value")?
                        .parse()
                        .map_err(|_| "--limit must be a number")?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option {other}"));
            }
            file => {
                if !opts.file.is_empty() {
                    return Err("multiple input files".into());
                }
                opts.file = file.to_owned();
            }
        }
    }
    if opts.file.is_empty() {
        return Err("missing input file".into());
    }
    Ok(opts)
}

fn load(file: &str) -> Result<(ConjunctiveQuery, Database), String> {
    let src = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let (q, db) = parse_program(&src).map_err(|e| e.to_string())?;
    let q = q.ok_or("program contains no rule")?;
    Ok((q, db))
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        "count" => {
            let opts = parse_opts(&args[1..])?;
            let (q, db) = load(&opts.file)?;
            if opts.explain && opts.alg == "auto" {
                let prepared = prepare_plan(&q, cqcount::core::planner::WIDTH_CAP);
                let (n, plan) = count_prepared(&q, &db, &prepared, &Budget::unlimited())
                    .map_err(|e| e.to_string())?;
                match plan {
                    cqcount::core::planner::Plan::SharpPipeline { width } => {
                        eprintln!("plan: #-hypertree pipeline, width {width} (Theorem 1.3)");
                    }
                    cqcount::core::planner::Plan::Hybrid {
                        width,
                        bound,
                        promoted,
                    } => {
                        eprintln!(
                            "plan: hybrid width {width}, degree bound {bound}, promoting {{{}}} (Theorem 6.6)",
                            promoted.join(", ")
                        );
                    }
                    cqcount::core::planner::Plan::BruteForce { reason } => {
                        eprintln!("plan: brute force ({reason})");
                    }
                }
                println!("{n}");
                return Ok(());
            }
            let n = match opts.alg.as_str() {
                "auto" => count_auto(&q, &db),
                "brute" => count_brute_force(&q, &db),
                "join" => count_via_full_join(&q, &db),
                "pipeline" => {
                    count_via_sharp_decomposition(&q, &db, opts.max_width)
                        .ok_or(format!(
                            "no #-hypertree decomposition of width ≤ {}",
                            opts.max_width
                        ))?
                        .0
                }
                "hybrid" => {
                    count_hybrid(&q, &db, opts.max_width, usize::MAX)
                        .ok_or("no hybrid decomposition found")?
                        .0
                }
                "dm" => count_durand_mengel(&q, &db, opts.max_width * 4)
                    .ok_or("no Durand–Mengel decomposition found")?,
                other => return Err(format!("unknown algorithm {other}")),
            };
            println!("{n}");
            Ok(())
        }
        "analyze" => {
            let opts = parse_opts(&args[1..])?;
            let (q, db) = load(&opts.file)?;
            let report = WidthReport::analyze(&q, opts.max_width);
            println!("query:                {q}");
            println!(
                "atoms / vars / free:  {} / {} / {}",
                report.atoms, report.vars, report.free
            );
            println!("database tuples:      {}", db.total_tuples());
            println!("α-acyclic:            {}", report.acyclic);
            let fmt =
                |w: Option<usize>| w.map_or(format!("> {}", opts.max_width), |v| v.to_string());
            println!("ghw:                  {}", fmt(report.ghw));
            println!("#-hypertree width:    {}", fmt(report.sharp_width));
            println!("quantified star size: {}", report.star_size);
            if let Some(hd) = cqcount::core::hybrid::hybrid_decomposition_guided(
                &q,
                &db,
                opts.max_width,
                usize::MAX,
            ) {
                let promoted: Vec<&str> = hd
                    .sbar
                    .iter()
                    .filter(|v| !q.free().contains(v))
                    .map(|v| q.var_name(*v))
                    .collect();
                println!(
                    "hybrid:               width {} with degree bound {}{}",
                    hd.sharp.width,
                    hd.bound,
                    if promoted.is_empty() {
                        String::new()
                    } else {
                        format!(" (promoting {})", promoted.join(", "))
                    }
                );
            }
            Ok(())
        }
        "enumerate" => {
            let opts = parse_opts(&args[1..])?;
            let (q, db) = load(&opts.file)?;
            let free: Vec<Var> = q.free().into_iter().collect();
            let width = opts.max_width.max(q.atoms().len());
            let mut emitted = 0usize;
            let ok = for_each_answer(&q, &db, width, |answer| {
                if opts.limit.is_some_and(|l| emitted >= l) {
                    return false; // honors --limit 0 too
                }
                let row: Vec<String> = free
                    .iter()
                    .map(|v| db.interner().name(answer[v]).to_owned())
                    .collect();
                println!("{}", row.join("\t"));
                emitted += 1;
                opts.limit.is_none_or(|l| emitted < l)
            });
            if !ok {
                return Err("no decomposition found for enumeration".into());
            }
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}
