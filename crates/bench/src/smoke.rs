//! Helpers shared by the gated smoke binaries (`cell_throughput`,
//! `robustness`, `service_load`, `cache_effect`, `chaos`): flag
//! parsing, min-of-N timing, the committed-baseline reader, the
//! order-sensitive value checksum they compare runs by, and
//! per-process scratch directories.

use std::path::PathBuf;

/// The value following `flag` in `args`, if both are present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `true` when `flag` appears anywhere in `args`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The `--smoke` / `--out PATH` pair every baseline-writing bin takes.
#[derive(Debug)]
pub struct SmokeArgs {
    /// `--smoke`: the CI-sized run, gated against the committed baseline.
    pub smoke: bool,
    /// `"smoke"` or `"full"`, as written into the JSON output.
    pub mode: &'static str,
    /// `--out PATH`, defaulting to `target/<baseline file name>` so the
    /// committed repo-root baseline is only refreshed deliberately.
    pub out_path: String,
}

impl SmokeArgs {
    /// Parses `args`; `default_out` is the path used without `--out`.
    pub fn parse(args: &[String], default_out: &str) -> Self {
        let smoke = has_flag(args, "--smoke");
        SmokeArgs {
            smoke,
            mode: if smoke { "smoke" } else { "full" },
            out_path: flag_value(args, "--out").unwrap_or_else(|| default_out.to_string()),
        }
    }
}

/// Runs `run` `reps` times (`reps ≥ 1`, each call given its repetition
/// index) and returns the element-wise minimum of the `K` timings each
/// call reports, with the last call's output. The bins report the
/// fastest of a few repetitions, which screens out scheduler noise on a
/// busy host; a call that times several paths keeps them interleaved
/// within each repetition.
pub fn min_of<const K: usize, T>(
    reps: usize,
    mut run: impl FnMut(usize) -> ([f64; K], T),
) -> ([f64; K], T) {
    assert!(reps > 0, "min_of needs at least one repetition");
    let (mut best, mut out) = run(0);
    for rep in 1..reps {
        let (times, next) = run(rep);
        for (b, t) in best.iter_mut().zip(times) {
            *b = b.min(t);
        }
        out = next;
    }
    (best, out)
}

/// The rows of the committed baseline at `path`: its lines holding the
/// field `key`, which every row object has and nothing else does. When
/// the file cannot be read, prints a "(no committed baseline …)" line
/// and returns `None`, so the caller skips its comparison.
pub fn committed_rows(path: &str, key: &str) -> Option<Vec<String>> {
    let Ok(baseline) = std::fs::read_to_string(path) else {
        println!("(no committed baseline at {path}; skipping comparison)");
        return None;
    };
    let marker = format!("\"{key}\"");
    Some(
        baseline
            .lines()
            .filter(|l| l.contains(&marker))
            .map(str::to_string)
            .collect(),
    )
}

/// Bitwise checksum of a value vector (order-sensitive XOR-rotate) —
/// enough to assert two runs produced identical bits, also across
/// process boundaries.
pub fn value_checksum(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

/// An emptied per-process scratch path `$TMPDIR/fedval-<bin>-<tag>-<pid>`
/// (not created: the cache creates its directory on first use).
pub fn tmpdir(bin: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fedval-{bin}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn smoke_args_parse_flags_and_default_out() {
        let parsed = SmokeArgs::parse(&args(&["--smoke"]), "target/B.json");
        assert!(parsed.smoke);
        assert_eq!(parsed.out_path, "target/B.json");
        assert_eq!(parsed.mode, "smoke");

        let parsed = SmokeArgs::parse(&args(&["--out", "B.json"]), "target/B.json");
        assert!(!parsed.smoke);
        assert_eq!(parsed.out_path, "B.json");
        assert_eq!(parsed.mode, "full");

        // A trailing flag with no value falls back to the default.
        assert_eq!(flag_value(&args(&["--out"]), "--out"), None);
    }

    #[test]
    fn min_of_takes_each_timing_minimum_and_the_last_output() {
        let times = [[3.0, 1.0], [2.0, 5.0], [4.0, 0.5]];
        let mut seen = Vec::new();
        let (best, last) = min_of(3, |rep| {
            seen.push(rep);
            (times[rep], rep)
        });
        assert_eq!(best, [2.0, 0.5]);
        assert_eq!(last, 2);
        assert_eq!(seen, [0, 1, 2]);
    }

    #[test]
    fn committed_rows_keep_the_marked_lines_of_a_readable_file() {
        let dir = tmpdir("smoke", "committed-rows");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("B.json");
        std::fs::write(
            &path,
            "{\n  \"rows\": [\n    {\"case\": \"a\", \"x\": 1},\n    {\"case\": \"b\"}\n  ]\n}\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        assert_eq!(
            committed_rows(path, "case").unwrap(),
            [r#"    {"case": "a", "x": 1},"#, r#"    {"case": "b"}"#]
        );
        assert_eq!(committed_rows(path, "scenario").unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(committed_rows(path, "case").is_none());
    }

    #[test]
    fn value_checksum_is_order_sensitive() {
        let a = value_checksum(&[1.0, 2.0]);
        assert_eq!(a, value_checksum(&[1.0, 2.0]));
        assert_ne!(a, value_checksum(&[2.0, 1.0]));
        assert_ne!(value_checksum(&[0.0]), value_checksum(&[-0.0]));
    }
}
