//! The portfolio-live golden file: exact simulated counters per
//! operation, plus the verdict lines of the benchmark seed and the
//! held-out seed.
//!
//! The ciphers under test are constant-time and the modelled caches
//! start warm, so every simulated counter of an operation (simulator
//! runs, cache accesses, lockstep traces, poisoned blocks) is the same
//! for every seed: the counters are checked on every run. Verdict lines
//! depend on the seed and are pinned for [`BENCHMARK_SEED`] and
//! [`HELD_OUT_SEED`]; on other seeds they are checked against a
//! reference pass through the scalar (non-lockstep) simulator path.
//!
//! Regenerate after a deliberate change to simulated behaviour with
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --capture-golden`.

use std::collections::BTreeMap;

/// The seed the benchmark's figures are quoted at.
pub const BENCHMARK_SEED: u64 = 1;

/// A seed kept out of tuning, to confirm a claimed gain on.
pub const HELD_OUT_SEED: u64 = 2;

/// The bundled golden file.
pub const BUNDLED: &str = include_str!("../golden/portfolio-live.txt");

/// Named exact counters of one operation, in a fixed order.
pub type Counters = Vec<(String, u64)>;

/// A parsed golden file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Golden {
    /// The size configuration the file was captured at.
    pub config: String,
    /// Exact counters per operation key (seed-independent).
    pub counters: BTreeMap<String, Counters>,
    /// Verdict lines per seed, per operation key.
    pub lines: BTreeMap<u64, BTreeMap<String, Vec<String>>>,
}

impl Golden {
    /// Parses the text format written by [`Golden::render`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut golden = Golden::default();
        for (number, line) in text.lines().enumerate() {
            let bad = || format!("golden line {}: malformed: {line}", number + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (kind, rest) = line.split_once(' ').ok_or_else(bad)?;
            match kind {
                "config" => rest.clone_into(&mut golden.config),
                "counters" => {
                    let mut fields = rest.split(' ');
                    let key = fields.next().ok_or_else(bad)?;
                    let counters = fields
                        .map(|f| {
                            let (name, value) = f.split_once('=')?;
                            Some((name.to_owned(), value.parse().ok()?))
                        })
                        .collect::<Option<Counters>>()
                        .ok_or_else(bad)?;
                    golden.counters.insert(key.to_owned(), counters);
                }
                "verdict" => {
                    let (head, verdict) = rest.split_once(" | ").ok_or_else(bad)?;
                    let (seed, key) = head.split_once(' ').ok_or_else(bad)?;
                    let seed: u64 = seed.parse().map_err(|_| bad())?;
                    golden
                        .lines
                        .entry(seed)
                        .or_default()
                        .entry(key.to_owned())
                        .or_default()
                        .push(verdict.to_owned());
                }
                _ => return Err(bad()),
            }
        }
        Ok(golden)
    }

    /// The text format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# perfbench portfolio-live golden: exact counters per operation (every seed)\n\
             # and verdict lines for the benchmark and held-out seeds.\n",
        );
        out.push_str(&format!("config {}\n", self.config));
        for (key, counters) in &self.counters {
            let fields: Vec<String> = counters.iter().map(|(n, v)| format!("{n}={v}")).collect();
            out.push_str(&format!("counters {key} {}\n", fields.join(" ")));
        }
        for (seed, ops) in &self.lines {
            for (key, lines) in ops {
                for line in lines {
                    out.push_str(&format!("verdict {seed} {key} | {line}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let mut golden = Golden {
            config: "traces=8".to_owned(),
            ..Golden::default()
        };
        golden
            .counters
            .insert("aes128/tvla".to_owned(), vec![("sim_runs".to_owned(), 17)]);
        golden.lines.entry(1).or_default().insert(
            "aes128/tvla".to_owned(),
            vec!["[aes128] TVLA | x".to_owned()],
        );
        assert_eq!(Golden::parse(&golden.render()), Ok(golden));
    }

    #[test]
    fn the_bundled_file_parses() {
        let golden = Golden::parse(BUNDLED).expect("bundled golden parses");
        assert!(!golden.counters.is_empty());
        assert!(golden.lines.contains_key(&BENCHMARK_SEED));
        assert!(golden.lines.contains_key(&HELD_OUT_SEED));
    }
}
