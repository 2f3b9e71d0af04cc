//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one benchmark run and prints, as its last line, a JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the line before
//! it holds the run's detail (configuration, sample counts, failures).
//!
//! `perfbench serve <store>` is the server process the benchmark starts;
//! `perfbench reopen <store>` times reopening its store after it stops.

use perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <lookup-resident|scan-cold|mixed-rw> --seed <n> --seconds <s> --trace <0|1>\n       perfbench serve <store-path>\n       perfbench reopen <store-path>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") if args.len() == 2 => perfbench::serve::serve(args[1].as_ref()),
        Some("reopen") if args.len() == 2 => perfbench::serve::reopen(args[1].as_ref()),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}\n{USAGE}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(USAGE.to_string());
    };
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let options = perfbench::Options {
        workload,
        seed,
        seconds,
        trace,
        doc_mb: None,
        server_exe: std::env::current_exe().map_err(|e| format!("own executable: {e}"))?,
        work_dir: cwd.join(".bench_data").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
        trace_dir: cwd.join(".bench_out"),
    };
    let prepared = perfbench::prepare(options)?;
    let outcome = perfbench::run(&prepared)?;
    println!("{}", outcome.detail.render());
    println!("{}", outcome.result_line());
    Ok(())
}
