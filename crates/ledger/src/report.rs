//! What the ledger writes and reads back: the one-line JSON a child prints
//! for its parent, and the per-workload result files `run` keeps and
//! `compare` reads.

use std::collections::BTreeMap;
use std::path::Path;

use mr_obs::export::json_escape as escape;

use crate::json::{num, Json};
use crate::metrics::{def, Values};
use crate::run::RunReport;

fn metrics_obj(values: &Values) -> String {
    let body: Vec<String> = values
        .0
        .iter()
        .map(|(n, v)| format!("\"{n}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn str_arr(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| format!("\"{}\"", escape(s))).collect();
    format!("[{}]", body.join(","))
}

/// The line a `child run` prints last on stdout.
pub fn run_line(r: &RunReport) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced\":{},\"attempted\":{},\"failed\":{},\
         \"retries\":{},\"read_samples\":{},\"write_samples\":{},\"sim_digest\":\"{}\",\
         \"audit\":{},\"errors\":{},\"host_ns_per_op\":{},\"span_coverage\":{},\"metrics\":{}}}",
        escape(&r.workload),
        r.seed,
        r.traced,
        r.attempted,
        r.failed,
        r.retries,
        r.read_samples,
        r.write_samples,
        r.sim_digest,
        str_arr(&r.audit),
        str_arr(&r.first_errors),
        num(r.host_ns_per_op),
        num(r.span_coverage),
        metrics_obj(&r.metrics),
    )
}

/// The line a `child layers` or `child setup` prints: metrics only.
pub fn metrics_line(values: &Values) -> String {
    format!("{{\"metrics\":{}}}", metrics_obj(values))
}

/// A child's parsed result line.
pub struct ChildResult(pub Json);

impl ChildResult {
    pub fn parse(stdout: &str) -> Result<ChildResult, String> {
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("child printed nothing")?;
        Json::parse(line).map(ChildResult)
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.0
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("child result lacks metric {name}"))
    }

    pub fn num(&self, field: &str) -> f64 {
        self.0
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("child result lacks {field}"))
    }

    pub fn text(&self, field: &str) -> &str {
        self.0
            .get(field)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("child result lacks {field}"))
    }

    pub fn list(&self, field: &str) -> Vec<String> {
        self.0
            .get(field)
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|s| s.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Identity of a result file: samples may only accumulate under an equal
/// header.
#[derive(Clone, Debug, PartialEq)]
pub struct Header {
    /// A workload name, or `layers`.
    pub subject: String,
    pub seed: u64,
    pub seconds: u64,
    pub git_rev: String,
    pub nproc: usize,
    pub rustc: String,
    pub sim_digest: String,
}

/// One pass's figures, with the noise guard's verdict on the run.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Why the run was marked noisy, if it was.
    pub noisy: Option<String>,
    pub metrics: BTreeMap<String, f64>,
}

pub struct ResultFile {
    pub header: Header,
    pub samples: Vec<Sample>,
}

impl ResultFile {
    pub fn load(path: &Path) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let h = j.get("header").ok_or("no header")?;
        let s = |k: &str| h.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let n = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let samples = j
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("no samples")?
            .iter()
            .map(|sample| Sample {
                noisy: sample.get("noisy").and_then(Json::as_str).map(String::from),
                metrics: sample
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .map(|m| {
                        m.iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect();
        Ok(ResultFile {
            header: Header {
                subject: s("subject"),
                seed: n("seed") as u64,
                seconds: n("seconds") as u64,
                git_rev: s("git_rev"),
                nproc: n("nproc") as usize,
                rustc: s("rustc"),
                sim_digest: s("sim_digest"),
            },
            samples,
        })
    }

    pub fn render(&self) -> String {
        let h = &self.header;
        let mut out = format!(
            "{{\n\"header\": {{\"subject\": \"{}\", \"seed\": {}, \"seconds\": {}, \"git_rev\": \"{}\", \
             \"nproc\": {}, \"rustc\": \"{}\", \"sim_digest\": \"{}\"}},\n\"units\": {{",
            escape(&h.subject),
            h.seed,
            h.seconds,
            escape(&h.git_rev),
            h.nproc,
            escape(&h.rustc),
            escape(&h.sim_digest)
        );
        let names: Vec<&String> = self
            .samples
            .first()
            .map(|s| s.metrics.keys().collect())
            .unwrap_or_default();
        let units: Vec<String> = names
            .iter()
            .map(|n| format!("\"{n}\": \"{}\"", def(n).map_or("", |d| d.unit)))
            .collect();
        out.push_str(&units.join(", "));
        out.push_str("},\n\"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let noisy = match &s.noisy {
                Some(why) => format!("\"{}\"", escape(why)),
                None => "null".into(),
            };
            let body: Vec<String> = s
                .metrics
                .iter()
                .map(|(n, v)| format!("\"{n}\": {}", num(*v)))
                .collect();
            out.push_str(&format!(
                "\n{{\"noisy\": {noisy}, \"metrics\": {{{}}}}}",
                body.join(", ")
            ));
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Add `sample` to the file at `path` if it holds runs under an equal
    /// header (same seed, size, revision, toolchain and simulated outcome);
    /// start the file over otherwise.
    pub fn append(path: &Path, header: Header, sample: Sample) -> Result<usize, String> {
        let mut file = match ResultFile::load(path) {
            Ok(f) if f.header == header => f,
            _ => ResultFile {
                header,
                samples: Vec::new(),
            },
        };
        file.samples.push(sample);
        std::fs::write(path, file.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(file.samples.len())
    }

    /// Every value recorded for `metric`, in sample order.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|s| s.metrics.get(metric).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips_and_accumulates() {
        let dir = std::env::temp_dir().join(format!("mr-ledger-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        let header = Header {
            subject: "w".into(),
            seed: 7,
            seconds: 16,
            git_rev: "abc".into(),
            nproc: 2,
            rustc: "rustc 1.x \"q\"".into(),
            sim_digest: "00ff".into(),
        };
        let sample = |v: f64, noisy: Option<&str>| Sample {
            noisy: noisy.map(String::from),
            metrics: [("setup_s".to_string(), v)].into_iter().collect(),
        };
        assert_eq!(
            ResultFile::append(&path, header.clone(), sample(1.5, None)).unwrap(),
            1
        );
        assert_eq!(
            ResultFile::append(&path, header.clone(), sample(2.5, Some("cpu_share 0.5"))).unwrap(),
            2
        );
        let f = ResultFile::load(&path).unwrap();
        assert_eq!(f.header, header);
        assert_eq!(f.values("setup_s"), vec![1.5, 2.5]);
        assert_eq!(f.samples[1].noisy.as_deref(), Some("cpu_share 0.5"));
        // A different digest starts the file over.
        let other = Header {
            sim_digest: "1234".into(),
            ..header
        };
        assert_eq!(
            ResultFile::append(&path, other, sample(9.0, None)).unwrap(),
            1
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
