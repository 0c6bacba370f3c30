//! The gate harness every benchmark bin shares.
//!
//! Each `bench_*` bin and `m2m_obs` runs in one of three modes: with no
//! mode flag it writes its `BENCH_*.json`; `--smoke` runs a reduced
//! benchmark and prints one line per gate,
//! `gate <key> <kind> <value> [<bound> <attempts>]`
//! ([`print_gates`]); `--check [artifact]` validates the committed
//! artifact and re-runs the rows the bin pins ([`Pin`]).
//!
//! A bin declares its gates once, as a `GATES` table at its top, and its
//! pin (if any) as a `PIN` beside it. `scripts/verify.sh` holds no bound
//! of its own: it runs each bin's `--smoke` untraced, then with
//! `M2M_TRACE=1`, and judges the two outputs by each gate's [`Kind`]. A
//! failed gate fails the script unless it declares more attempts, in
//! which case both smokes run again (wall-clock gates only; a digest
//! never retries). Then the script runs `--check`.

use std::fmt;

use m2m_core::faults::FaultOutcome;

use crate::report::JsonValue;

/// How `scripts/verify.sh` judges a gate's value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Equal in the untraced and the traced process: tracing may not
    /// move a bit of what the bin computed.
    Same,
    /// The two processes' values within this many percent of the smaller.
    Near(f64),
    /// The untraced value is at least this.
    Min(f64),
    /// The untraced value is at most this.
    Max(f64),
}

/// One line of a bin's `--smoke` output: the value printed under `key`,
/// judged by `kind` up to `attempts` times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    key: &'static str,
    kind: Kind,
    attempts: u32,
}

impl Gate {
    /// A gate judged once.
    pub const fn new(key: &'static str, kind: Kind) -> Self {
        Gate {
            key,
            kind,
            attempts: 1,
        }
    }

    /// The same gate, judged up to `attempts` times.
    pub const fn retried(self, attempts: u32) -> Self {
        Gate { attempts, ..self }
    }

    fn line(&self, value: &dyn fmt::Display) -> String {
        let (kind, bound) = match self.kind {
            Kind::Same => return format!("gate {} same {value}", self.key),
            Kind::Near(b) => ("near", b),
            Kind::Min(b) => ("min", b),
            Kind::Max(b) => ("max", b),
        };
        format!("gate {} {kind} {value} {bound} {}", self.key, self.attempts)
    }
}

/// The gate lines for `values`, one per declared gate, in declared order.
/// Panics unless `values` names every gate of `gates` once, and nothing
/// else.
fn gate_lines(gates: &[Gate], values: &[(&str, &dyn fmt::Display)]) -> Vec<String> {
    assert_eq!(values.len(), gates.len(), "one value per declared gate");
    gates
        .iter()
        .map(|g| match values.iter().find(|(key, _)| *key == g.key) {
            Some((_, value)) => g.line(*value),
            None => panic!("gate {} has no value", g.key),
        })
        .collect()
}

/// Prints one line per gate of `gates` in declared order, then exports
/// the counter snapshot `M2M_TRACE_OUT` asks for, which the traced smoke
/// must deliver.
///
/// # Panics
/// Panics unless `values` names every gate of `gates` once, and nothing
/// else.
pub fn print_gates(gates: &[Gate], values: &[(&str, &dyn fmt::Display)]) {
    for line in gate_lines(gates, values) {
        println!("{line}");
    }
    crate::report::export_telemetry();
}

/// FNV-1a over 64-bit words, the fold behind every bench digest. It
/// displays as `0x` and 16 hex digits, the form artifacts and gates carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn fold(&mut self, bits: u64) {
        self.0 = (self.0 ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The digest of `text`, one byte per word.
    pub fn text(text: &str) -> Self {
        let mut h = Digest::default();
        text.bytes().for_each(|b| h.fold(u64::from(b)));
        h
    }

    /// The digest of every field of every lossy outcome: results
    /// (presence and bits), coverage sets, cost, slots, retransmissions,
    /// drops and delivery.
    pub fn outcomes(outcomes: &[FaultOutcome]) -> Self {
        let mut h = Digest::default();
        for out in outcomes {
            for r in &out.results {
                h.fold(r.map_or(u64::MAX, f64::to_bits));
            }
            for c in &out.coverage {
                h.fold(u64::from(c.destination.0));
                h.fold(c.covered as u64);
                h.fold(c.demanded as u64);
                c.missing.iter().for_each(|m| h.fold(u64::from(m.0)));
            }
            h.fold(out.cost.tx_uj.to_bits());
            h.fold(out.cost.rx_uj.to_bits());
            h.fold(out.cost.messages as u64);
            h.fold(out.cost.units as u64);
            h.fold(out.cost.payload_bytes);
            h.fold(u64::from(out.slots_used));
            h.fold(out.retransmissions as u64);
            h.fold(out.dropped_messages as u64);
            h.fold(u64::from(out.delivered));
        }
        h
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0)
    }
}

/// Artifact rows `--check` re-runs: every row of the `rows` array whose
/// `key` field is one of `values` (every row when `values` is empty)
/// must reproduce its `digest` field.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// The artifact's array of rows.
    pub rows: &'static str,
    /// The field that names a row.
    pub key: &'static str,
    /// The pinned rows' `key` values; empty pins every row.
    pub values: &'static [u64],
    /// The field holding a row's digest.
    pub digest: &'static str,
}

impl Pin {
    /// Re-runs each pinned row of `doc` through `rerun`, which returns
    /// the row's digest, and returns how many rows it re-ran.
    ///
    /// # Panics
    /// Panics if a pinned value has no row or a row's digest differs.
    pub fn check(
        &self,
        path: &str,
        doc: &JsonValue,
        mut rerun: impl FnMut(&JsonValue) -> String,
    ) -> usize {
        let Some(JsonValue::Array(rows)) = doc.get(self.rows) else {
            panic!("{path}: missing {} array", self.rows)
        };
        let mut ran = 0;
        for row in rows {
            let id = row.get(self.key);
            let value = id.and_then(JsonValue::as_u64);
            if !self.values.is_empty() && !value.is_some_and(|v| self.values.contains(&v)) {
                continue;
            }
            let id = id.map_or(String::new(), |v| v.render().trim().to_string());
            let got = rerun(row);
            assert_eq!(
                Some(got.as_str()),
                row.get(self.digest).and_then(JsonValue::as_str),
                "{path}: {}={id} re-ran to another {}",
                self.key,
                self.digest
            );
            println!("pin {}={id} {} {got}", self.key, self.digest);
            ran += 1;
        }
        let want = if self.values.is_empty() {
            ran.max(1)
        } else {
            self.values.len()
        };
        assert_eq!(
            ran, want,
            "{path}: want one {} row per pinned {}",
            self.rows, self.key
        );
        ran
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GATES: &[Gate] = &[
        Gate::new("digest", Kind::Same),
        Gate::new("ratio", Kind::Near(2.0)).retried(3),
        Gate::new("rate", Kind::Min(5.0)),
    ];

    #[test]
    fn gate_lines_follow_the_declared_order() {
        let values: [(&str, &dyn fmt::Display); 3] = [
            ("rate", &12.5),
            ("digest", &Digest::text("a")),
            ("ratio", &1.01),
        ];
        assert_eq!(
            gate_lines(GATES, &values),
            [
                format!("gate digest same {}", Digest::text("a")),
                "gate ratio near 1.01 2 3".to_string(),
                "gate rate min 12.5 5 1".to_string(),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "gate rate has no value")]
    fn gate_lines_reject_an_undeclared_key() {
        let values: [(&str, &dyn fmt::Display); 3] = [("digest", &0), ("ratio", &1), ("speed", &1)];
        gate_lines(GATES, &values);
    }

    #[test]
    fn digest_is_fnv1a_over_words() {
        let mut d = Digest::default();
        d.fold(u64::from(b'a'));
        assert_eq!(d, Digest::text("a"));
        let want = (0xcbf2_9ce4_8422_2325u64 ^ 0x61).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(d.to_string(), format!("0x{want:016x}"));
    }

    #[test]
    fn pin_re_runs_the_selected_rows() {
        let doc = JsonValue::parse(
            r#"{"sizes": [{"n": 10, "d": "a"}, {"n": 20, "d": "b"}, {"n": 30, "d": "c"}]}"#,
        )
        .expect("valid");
        let pin = Pin {
            rows: "sizes",
            key: "n",
            values: &[10, 30],
            digest: "d",
        };
        let digest = |row: &JsonValue| row.get("d").and_then(JsonValue::as_str).expect("d").into();
        let mut ran = Vec::new();
        let count = pin.check("t.json", &doc, |row| {
            ran.push(row.get("n").and_then(JsonValue::as_u64).expect("n"));
            digest(row)
        });
        assert_eq!((count, ran), (2, vec![10, 30]));
        let every = Pin { values: &[], ..pin };
        assert_eq!(every.check("t.json", &doc, digest), 3);
        let changed = std::panic::catch_unwind(|| pin.check("t.json", &doc, |_| "z".into()));
        assert!(changed.is_err(), "a changed digest must fail the pin");
        let missing = Pin {
            values: &[40],
            ..pin
        };
        assert!(std::panic::catch_unwind(|| missing.check("t.json", &doc, digest)).is_err());
    }
}
