//! Command line: `run`, `bench` (the `BENCHMARK.json` contract), `compare`,
//! and the hidden `child` the parent spawns for every measured process.
//!
//! The parent never measures anything itself. Each workload runs in a fresh
//! single-threaded child, one at a time, so `peak_rss_mb` is per workload
//! and nothing else competes for the two cores.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::num;
use crate::layers::{run_layers, Budget};
use crate::metrics::{self, median, Better, Bound, MetricDef, Pass, Values};
use crate::report::{metrics_line, run_line, ChildResult, Header, ResultFile, Sample};
use crate::run::run_workload;
use crate::workloads::{workload, Size, Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, and `run`'s default size. One long
/// measured phase per run, not several short ones: what a seed's luck does
/// to the host cost of an op shrinks with the ops in the phase, and
/// identical work runs ±10 % faster or slower from one 5 s stretch to the
/// next on this box. 20 s is what 92 runs of four workloads and two builds
/// leave room for in the contract's 57 minutes with the box at its slowest.
pub const DEFAULT_SECONDS: u64 = 20;
/// The warm-up child touches this much memory: above the largest
/// workload's peak RSS, so a lazily backed guest has its pages before the
/// first measured child faults them in.
const WARMUP_MIB: usize = 1024;
/// Noise guard thresholds on the measured phase of a child.
const MIN_CPU_SHARE: f64 = 0.95;
const MAX_SYS_SHARE: f64 = 0.10;

type Flags = BTreeMap<String, String>;

/// `--name value` pairs and bare `--switch`es after the subcommand.
fn parse_flags(args: &[String], switches: &[&str]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Flags::new();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) if switches.contains(&name) => {
                flags.insert(name.to_string(), "1".into());
            }
            Some(name) => {
                let v = it.next().ok_or(format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            }
            None => rest.push(a.clone()),
        }
    }
    Ok((flags, rest))
}

fn flag<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse::<T>().map_err(|_| format!("bad --{name} {v:?}")))
        .transpose()
}

fn need<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    flag(flags, name)?.ok_or(format!("missing --{name}"))
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })
}

// ---------------------------------------------------------------------------
// Children
// ---------------------------------------------------------------------------

/// `child <mode> ...`: one measured process. Prints its result as the last
/// stdout line.
fn child(args: &[String]) -> Result<(), String> {
    let (mode, rest) = args.split_first().ok_or("child needs a mode")?;
    let (flags, _) = parse_flags(rest, &[])?;
    match mode.as_str() {
        "warmup" => {
            let mut block = vec![0u8; WARMUP_MIB << 20];
            for page in block.chunks_mut(4096) {
                page[0] = 1;
            }
            std::hint::black_box(&block);
        }
        "run" => {
            let w = find_workload(&need::<String>(&flags, "workload")?)?;
            let size = Size::for_seconds(w, need(&flags, "seconds")?);
            let traced = need::<u8>(&flags, "traced")? == 1;
            let r = run_workload(w.name, need(&flags, "seed")?, size, traced);
            if let (Some(path), Some(trace)) = (flags.get("trace-out"), &r.chrome_trace) {
                std::fs::write(path, trace).map_err(|e| format!("{path}: {e}"))?;
            }
            println!("{}", run_line(&r));
        }
        "layers" => {
            let m = run_layers(need(&flags, "seed")?, Budget::FULL);
            println!("{}", metrics_line(&m));
        }
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(())
}

/// Run `child <args>` of this executable to completion; its stdout.
fn spawn_raw(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Run a measuring child and parse its result line.
fn spawn(args: &[String]) -> Result<ChildResult, String> {
    ChildResult::parse(&spawn_raw(args)?)
}

/// Touch [`WARMUP_MIB`] in a throw-away child before anything is measured.
fn warm_up() -> Result<(), String> {
    spawn_raw(&["warmup".into()]).map(|_| ())
}

fn strs(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

fn child_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<ChildResult, String> {
    let mut args = strs(&["run", "--workload", w.name]);
    args.extend([
        "--seed".into(),
        seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--traced".into(),
        (traced as u8).to_string(),
    ]);
    if let Some(p) = trace_out {
        args.extend(["--trace-out".into(), p.display().to_string()]);
    }
    spawn(&args)
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// One pass over one workload, reduced to what the callers print and keep.
struct PassResult {
    values: Values,
    attempted: u64,
    failed: u64,
    sim_digest: String,
    /// Audit violations, digest mismatches: anything that makes the run's
    /// outputs wrong.
    problems: Vec<String>,
    noisy: Option<String>,
    /// Lines for the human report (counts that are not metrics).
    notes: Vec<String>,
}

fn noise_verdict(c: &ChildResult) -> Option<String> {
    let (cpu, sys) = (c.metric("host.cpu_share"), c.metric("host.sys_share"));
    if cpu < MIN_CPU_SHARE {
        Some(format!("host.cpu_share {cpu:.3} < {MIN_CPU_SHARE}"))
    } else if sys > MAX_SYS_SHARE {
        Some(format!("host.sys_share {sys:.3} > {MAX_SYS_SHARE}"))
    } else {
        None
    }
}

/// What makes a run's outputs wrong: audit violations, and failures beyond
/// `failed_share`'s bound (the workloads are sized so that none fail).
fn problems_of(c: &ChildResult) -> Vec<String> {
    let mut p = c.list("audit");
    if let Some(Bound::Abs(max)) = metrics::def("failed_share").map(|d| d.bound) {
        if c.metric("failed_share") > max {
            p.push(format!(
                "{} of {} ops failed; first errors: {:?}",
                c.num("failed"),
                c.num("attempted"),
                c.list("errors")
            ));
        }
    }
    p
}

fn counts_note(c: &ChildResult) -> String {
    format!(
        "ops attempted={} failed={} retries={} read_samples={} write_samples={}",
        c.num("attempted"),
        c.num("failed"),
        c.num("retries"),
        c.num("read_samples"),
        c.num("write_samples")
    )
}

/// End-to-end pass: one measuring child, after `w.setup_samples - 1`
/// children that only set up (a phase of length 0); `setup_s` is the median
/// over all of them.
fn e2e_pass(w: &Workload, seed: u64, seconds: f64) -> Result<PassResult, String> {
    let mut setups = Vec::new();
    for _ in 1..w.setup_samples {
        setups.push(child_run(w, seed, 0.0, false, None)?.metric("setup_s"));
    }
    let c = child_run(w, seed, seconds, false, None)?;
    setups.push(c.metric("setup_s"));
    let mut values = Values::default();
    for d in metrics::of_pass(Pass::E2e) {
        let v = match d.name {
            "setup_s" => median(setups.clone()),
            name => c.metric(name),
        };
        values.push(d.name, v);
    }
    Ok(PassResult {
        values,
        attempted: c.num("attempted") as u64,
        failed: c.num("failed") as u64,
        sim_digest: c.text("sim_digest").to_string(),
        problems: problems_of(&c),
        noisy: noise_verdict(&c),
        notes: vec![
            counts_note(&c),
            format!("setup_s samples {setups:?}"),
            format!(
                "host.cpu_share {} host.sys_share {}",
                c.metric("host.cpu_share"),
                c.metric("host.sys_share")
            ),
        ],
    })
}

/// Traced pass: an untraced reference and a traced child over the same
/// seed and size. The reference gives `sim.host_ns_per_event` and the
/// denominator of `ledger.trace_overhead_share`; its end-to-end figures
/// are returned beside the pass.
fn traced_pass(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<&Path>,
) -> Result<(PassResult, Values), String> {
    let reference = child_run(w, seed, seconds, false, None)?;
    let traced = child_run(w, seed, seconds, true, trace_out)?;
    let mut values = Values::default();
    for d in metrics::of_pass(Pass::Traced) {
        let v = match d.name {
            "sim.host_ns_per_event" => reference.metric(d.name),
            "ledger.trace_overhead_share" => {
                traced.num("host_ns_per_op") / reference.num("host_ns_per_op") - 1.0
            }
            name => traced.metric(name),
        };
        values.push(d.name, v);
    }
    let mut problems = problems_of(&traced);
    if traced.text("sim_digest") != reference.text("sim_digest") {
        problems.push(format!(
            "traced run's sim_digest {} differs from the untraced {}",
            traced.text("sim_digest"),
            reference.text("sim_digest")
        ));
    }
    let coverage = traced.num("span_coverage");
    if (coverage - 1.0).abs() > 0.02 {
        problems.push(format!("spans cover {coverage:.4} of the measured phase"));
    }
    let mut reference_e2e = Values::default();
    for d in metrics::of_pass(Pass::E2e) {
        reference_e2e.push(d.name, reference.metric(d.name));
    }
    let pass = PassResult {
        values,
        attempted: traced.num("attempted") as u64,
        failed: traced.num("failed") as u64,
        sim_digest: traced.text("sim_digest").to_string(),
        problems,
        noisy: noise_verdict(&traced).or(noise_verdict(&reference)),
        notes: vec![format!(
            "traced: {} span_coverage={coverage:.6}",
            counts_note(&traced)
        )],
    };
    Ok((pass, reference_e2e))
}

fn layers_pass(seed: u64) -> Result<Values, String> {
    let c = spawn(&["layers".into(), "--seed".into(), seed.to_string()])?;
    let mut values = Values::default();
    for d in metrics::of_pass(Pass::Layers) {
        values.push(d.name, c.metric(d.name));
    }
    Ok(values)
}

// ---------------------------------------------------------------------------
// bench: the BENCHMARK.json contract
// ---------------------------------------------------------------------------

fn bench(args: &[String]) -> Result<bool, String> {
    let (flags, _) = parse_flags(args, &[])?;
    let w = find_workload(&need::<String>(&flags, "workload")?)?;
    let seed: u64 = need(&flags, "seed")?;
    let seconds: f64 = need(&flags, "seconds")?;
    let trace: u8 = need(&flags, "trace")?;
    warm_up()?;
    let (pass, listed): (PassResult, Vec<&MetricDef>) = if trace == 0 {
        (
            e2e_pass(w, seed, seconds)?,
            metrics::contract_end_to_end().map(|(d, _)| d).collect(),
        )
    } else {
        // Half the length: the traced figures are shares and per-op or
        // per-event costs, and the pass runs the phase twice.
        let (mut pass, reference_e2e) = traced_pass(w, seed, seconds / 2.0, None)?;
        pass.values.0.extend(reference_e2e.0);
        pass.values.0.extend(layers_pass(seed)?.0);
        (pass, metrics::contract_per_layer().collect())
    };
    for line in pass.notes.iter().chain(&pass.problems) {
        eprintln!("[{}] {line}", w.name);
    }
    if let Some(why) = &pass.noisy {
        eprintln!("[{}] NOISY run: {why}", w.name);
    }
    eprintln!("[{}] sim_digest {}", w.name, pass.sim_digest);
    let body: Vec<String> = listed
        .iter()
        .map(|d| {
            let v = pass
                .values
                .get(d.name)
                .expect("pass produced every listed metric");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(v),
                d.unit
            )
        })
        .collect();
    // A wrong run still exits 0: the result line carries the verdict.
    let correct = pass.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.attempted.max(1),
        pass.failed,
        body.join(", ")
    );
    Ok(true)
}

// ---------------------------------------------------------------------------
// run: the human-facing ledger
// ---------------------------------------------------------------------------

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_values(subject: &str, values: &Values, noisy: &Option<String>) {
    let tag = if noisy.is_some() { "  (noisy)" } else { "" };
    for (name, v) in &values.0 {
        let unit = metrics::def(name).map_or("", |d| d.unit);
        println!("{subject:<16} {name:<36} {:>16} {unit}{tag}", num(*v));
    }
}

/// Add one sample to `<out>/<header.subject>.json`.
fn keep(out: &Path, header: Header, values: &Values, noisy: &Option<String>) -> Result<(), String> {
    let path = out.join(format!("{}.json", header.subject));
    let sample = Sample {
        noisy: noisy.clone(),
        metrics: values.0.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    };
    let n = ResultFile::append(&path, header, sample)?;
    println!("# {} now holds {n} sample(s)", path.display());
    Ok(())
}

fn run(args: &[String]) -> Result<bool, String> {
    let (flags, _) = parse_flags(args, &["traced", "layers"])?;
    let seed: u64 = need(&flags, "seed")?;
    let seconds: u64 = flag(&flags, "seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = PathBuf::from(need::<String>(&flags, "out")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let chosen: Vec<&Workload> = match flags.get("workload") {
        Some(name) => vec![find_workload(name)?],
        None => WORKLOADS.iter().collect(),
    };
    let git_rev = tool_line("git", &["describe", "--always", "--dirty"]);
    let rustc = tool_line("rustc", &["-V"]);
    println!("# mr-ledger run: seed {seed}, {seconds} s, git {git_rev}, {rustc}");
    let header = |subject: &str, seconds: u64, sim_digest: &str| Header {
        subject: subject.into(),
        seed,
        seconds,
        git_rev: git_rev.clone(),
        nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
        rustc: rustc.clone(),
        sim_digest: sim_digest.into(),
    };
    warm_up()?;
    let mut ok = true;
    for w in chosen {
        let mut pass = e2e_pass(w, seed, seconds as f64)?;
        if flags.contains_key("traced") {
            let trace_path = out.join(format!("{}.trace.json", w.name));
            let (t, _) = traced_pass(w, seed, seconds as f64, Some(&trace_path))?;
            pass.values.0.extend(t.values.0);
            pass.problems.extend(t.problems);
            pass.notes.extend(t.notes);
            pass.noisy = pass.noisy.or(t.noisy);
        }
        println!("\n## {}   sim_digest {}", w.name, pass.sim_digest);
        for note in &pass.notes {
            println!("# {note}");
        }
        if let Some(why) = &pass.noisy {
            println!("# NOISY: {why} — host-time figures of this run are suspect");
        }
        print_values(w.name, &pass.values, &pass.noisy);
        for p in &pass.problems {
            println!("# PROBLEM: {p}");
            ok = false;
        }
        keep(
            &out,
            header(w.name, seconds, &pass.sim_digest),
            &pass.values,
            &pass.noisy,
        )?;
    }
    if flags.contains_key("layers") {
        let values = layers_pass(seed)?;
        println!("\n## layers");
        print_values("layers", &values, &None);
        keep(&out, header("layers", 0, ""), &values, &None)?;
    }
    Ok(ok)
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// Distance between the quartiles (the extremes, under four samples) as a
/// share of the median; `None` with a single sample.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let (lo, hi) = if v.len() < 4 {
        (v[0], v[v.len() - 1])
    } else {
        (v[v.len() / 4], v[(3 * v.len()) / 4])
    };
    let med = v[v.len() / 2];
    (med != 0.0).then(|| (hi - lo) / med.abs())
}

/// One row's verdict.
fn judge(d: &MetricDef, base: &[f64], new: &[f64]) -> (f64, &'static str) {
    let (b, n) = (median(base.to_vec()), median(new.to_vec()));
    let delta = if b == 0.0 { n - b } else { (n - b) / b.abs() };
    let worse_by = match d.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let verdict = match d.bound {
        Bound::Exact if n == b => "same",
        Bound::Exact => "changed",
        Bound::Abs(a) if n - b > a => "worse",
        Bound::Abs(_) => "same",
        Bound::Rel(r) => {
            let s = spread(base)
                .into_iter()
                .chain(spread(new))
                .fold(0.0, f64::max);
            if s > r {
                "unresolved"
            } else if worse_by > r {
                "worse"
            } else if worse_by < -r {
                "better"
            } else {
                "same"
            }
        }
        Bound::None => "info",
    };
    (delta, verdict)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [base_dir, new_dir] = args else {
        return Err("usage: compare <baseline-dir> <new-dir>".into());
    };
    let mut any_worse = false;
    let subjects = WORKLOADS.iter().map(|w| w.name).chain(["layers"]);
    println!(
        "{:<16} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
        "subject", "metric", "baseline", "new", "delta", "bound"
    );
    for subject in subjects {
        let file = format!("{subject}.json");
        let (bp, np) = (
            Path::new(base_dir).join(&file),
            Path::new(new_dir).join(&file),
        );
        if !bp.exists() || !np.exists() {
            println!("# {subject}: not in both directories, skipped");
            continue;
        }
        let (base, new) = (ResultFile::load(&bp)?, ResultFile::load(&np)?);
        if base.header.seed != new.header.seed || base.header.seconds != new.header.seconds {
            println!(
                "# {subject}: seed/size differ ({}:{} s vs {}:{} s) — simulated figures are not comparable",
                base.header.seed, base.header.seconds, new.header.seed, new.header.seconds
            );
        } else if base.header.sim_digest != new.header.sim_digest {
            println!(
                "# {subject}: sim_digest {} -> {}: simulated behaviour changed",
                base.header.sim_digest, new.header.sim_digest
            );
        }
        let noisy = |f: &ResultFile| f.samples.iter().filter(|s| s.noisy.is_some()).count();
        if noisy(&base) + noisy(&new) > 0 {
            println!(
                "# {subject}: {} baseline and {} new sample(s) marked noisy",
                noisy(&base),
                noisy(&new)
            );
        }
        for d in metrics::METRICS {
            let (bv, nv) = (base.values(d.name), new.values(d.name));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let (delta, verdict) = judge(d, &bv, &nv);
            any_worse |= verdict == "worse";
            let bound = match d.bound {
                Bound::Rel(r) => format!("{:.0}%", r * 100.0),
                Bound::Abs(a) => format!("+{a}"),
                Bound::Exact => "exact".into(),
                Bound::None => "-".into(),
            };
            println!(
                "{subject:<16} {:<36} {:>14.6} {:>14.6} {:>+8.2}% {bound:>7}  {verdict}",
                d.name,
                median(bv),
                median(nv),
                delta * 100.0
            );
        }
    }
    Ok(!any_worse)
}

// ---------------------------------------------------------------------------

/// `BENCHMARK.json`, from the metric and workload tables (the smoke test
/// holds the committed file to them).
fn contract_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = metrics::contract_end_to_end()
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    let layers: Vec<String> = metrics::contract_per_layer()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"-p\", \"mr-ledger\", \"--\", \"bench\"],\n  \
         \"paths\": [\"crates/ledger\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

const USAGE: &str = "usage:
  mr-ledger run --seed <u64> [--workload <name>] [--traced] [--layers] [--seconds <n>] --out <dir>
  mr-ledger compare <baseline-dir> <new-dir>
  mr-ledger bench --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let result = match cmd.as_str() {
        "run" => run(rest),
        "bench" => bench(rest),
        "compare" => compare(rest),
        "child" => child(rest).map(|()| true),
        "contract" => {
            print!("{}", contract_json());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("mr-ledger: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(metric: &str, base: &[f64], new: &[f64]) -> &'static str {
        judge(metrics::def(metric).expect("known metric"), base, new).1
    }

    #[test]
    fn compare_judges_by_bound_direction_and_spread() {
        // Higher is better, 10 % relative bound.
        assert_eq!(verdict("ops_per_host_s", &[100.0], &[95.0]), "same");
        assert_eq!(verdict("ops_per_host_s", &[100.0], &[85.0]), "worse");
        assert_eq!(verdict("ops_per_host_s", &[100.0], &[115.0]), "better");
        // Samples wider apart than the bound cannot resolve a 10 % move.
        assert_eq!(
            verdict("ops_per_host_s", &[80.0, 100.0, 120.0], &[85.0]),
            "unresolved"
        );
        // Lower is better.
        assert_eq!(verdict("setup_s", &[1.0], &[1.3]), "worse");
        // Simulated figures and counts compare exactly.
        assert_eq!(verdict("sim_read_p50_ms", &[93.5], &[93.5]), "same");
        assert_eq!(verdict("sim_read_p50_ms", &[93.5], &[93.6]), "changed");
        // Absolute bounds for the metrics that are 0 on a healthy run.
        assert_eq!(verdict("failed_share", &[0.0], &[0.001]), "same");
        assert_eq!(verdict("failed_share", &[0.0], &[0.01]), "worse");
        assert_eq!(verdict("audit_violations", &[0.0], &[1.0]), "worse");
        assert_eq!(verdict("kv.step_raft.host_share", &[0.5], &[0.1]), "info");
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let args = strs(&["--seed", "7", "--traced", "--out", "d", "extra"]);
        let (flags, rest) = parse_flags(&args, &["traced", "layers"]).unwrap();
        assert_eq!(need::<u64>(&flags, "seed"), Ok(7));
        assert!(flags.contains_key("traced") && !flags.contains_key("layers"));
        assert_eq!(rest, ["extra"]);
        assert!(need::<u64>(&flags, "seconds").is_err());
        assert!(parse_flags(&strs(&["--seed"]), &[]).is_err());
    }
}
