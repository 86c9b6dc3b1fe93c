//! The [`CipherTarget`] contract: everything a campaign, an audit or a
//! characterization needs from a cipher implementation, with the
//! concrete cipher behind a trait object.

use std::fmt;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use sca_analysis::SelectionFunction;
use sca_isa::Program;
use sca_uarch::{Cpu, Lane, UarchConfig, UarchError};

/// How a leakage model relates to the microarchitecture.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ModelKind {
    /// Value-level Hamming weight of an architectural intermediate —
    /// microarchitecture-*unaware* (the Figure 3 style).
    ValueHw,
    /// Hamming distance of a microarchitectural transition (consecutive
    /// stores through the LSU data path) — microarchitecture-*aware*
    /// (the Figure 4 style).
    TransitionHd,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelKind::ValueHw => f.write_str("HW"),
            ModelKind::TransitionHd => f.write_str("HD"),
        }
    }
}

/// A symbol visit: the `visit`-th retirement of the instruction at
/// `symbol` after the trigger rises (programs under test are
/// constant-time, so one probe run resolves it for every execution).
#[derive(Clone, Debug)]
pub struct SymbolVisit {
    /// Program symbol name.
    pub symbol: String,
    /// 0-based visit index (loops revisit their labels).
    pub visit: usize,
}

impl SymbolVisit {
    /// Convenience constructor.
    pub fn new(symbol: impl Into<String>, visit: usize) -> SymbolVisit {
        SymbolVisit {
            symbol: symbol.into(),
            visit,
        }
    }
}

/// A campaign windowing hint, expressed over program symbols so it
/// survives re-assembly and `sca-sched` relocation.
#[derive(Clone, Debug)]
pub struct WindowHint {
    /// Window start; `None` anchors at the rising trigger edge.
    pub start: Option<SymbolVisit>,
    /// Cycles of slack subtracted before `start` (in-flight stores).
    pub lead: u64,
    /// Window end (exclusive, plus `tail`).
    pub end: SymbolVisit,
    /// Cycles of slack added after `end`.
    pub tail: u64,
}

impl WindowHint {
    /// A window from `start` (visit `start_visit`) to `end`
    /// (visit `end_visit`), widened by the given slacks.
    pub fn span(
        start: impl Into<String>,
        start_visit: usize,
        lead: u64,
        end: impl Into<String>,
        end_visit: usize,
        tail: u64,
    ) -> WindowHint {
        WindowHint {
            start: Some(SymbolVisit::new(start, start_visit)),
            lead,
            end: SymbolVisit::new(end, end_visit),
            tail,
        }
    }

    /// A window from the trigger edge to `end`, plus `tail` cycles.
    pub fn from_trigger(end: impl Into<String>, end_visit: usize, tail: u64) -> WindowHint {
        WindowHint {
            start: None,
            lead: 0,
            end: SymbolVisit::new(end, end_visit),
            tail,
        }
    }
}

type PredictFn = Arc<dyn Fn(&[u8], u8) -> f64 + Send + Sync>;

/// An owned input-canonicalization closure (see
/// [`CipherTarget::input_canonicalizer`]).
pub type InputCanonicalizer = Arc<dyn Fn(&[u8]) -> Vec<u8> + Send + Sync>;

/// One attack model of a target: a CPA selection function plus the
/// metadata the generic drivers need (what kind of model it is, the
/// true value of the attacked key byte, and where in the execution its
/// leakage lives).
#[derive(Clone)]
pub struct TargetModel {
    /// Model name, as printed in verdicts.
    pub name: String,
    /// Microarchitecture-aware or not.
    pub kind: ModelKind,
    /// The true value of the targeted key byte (for ranking).
    pub correct: u8,
    /// Where this model's leakage lives.
    pub window: WindowHint,
    predict: PredictFn,
}

impl TargetModel {
    /// Wraps a selection function (any `sca-analysis` model) with the
    /// portfolio metadata.
    pub fn new(
        kind: ModelKind,
        correct: u8,
        window: WindowHint,
        model: impl SelectionFunction + 'static,
    ) -> TargetModel {
        TargetModel {
            name: model.name(),
            kind,
            correct,
            window,
            predict: Arc::new(move |input, guess| model.predict(input, guess)),
        }
    }

    /// The model's prediction at the *true* key — the secret expression
    /// audits and characterizations correlate against.
    pub fn predict_true(&self, input: &[u8]) -> f64 {
        (self.predict)(input, self.correct)
    }
}

impl SelectionFunction for TargetModel {
    fn predict(&self, input: &[u8], guess: u8) -> f64 {
        (self.predict)(input, guess)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for TargetModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TargetModel({} / {:?})", self.name, self.kind)
    }
}

/// A cipher implementation the portfolio can attack.
///
/// The contract splits a campaign input into a *plaintext* prefix (what
/// the staging writes into simulator memory) and an optional suffix of
/// attacker-side knowledge or victim-side randomness appended by
/// [`CipherTarget::finish_input`] — the SPECK target appends the
/// golden-model ciphertext its last-round models read (public data for
/// a known-ciphertext attacker), the masked AES target appends the mask
/// bytes its implementation draws (never read by any model).
///
/// Everything downstream — the `sca-campaign` sinks and shard plans,
/// the TVLA classification, the node-level audits, the Table-2-style
/// characterization — runs against `&dyn CipherTarget` and never names
/// a concrete cipher.
pub trait CipherTarget: Send + Sync {
    /// Registry name (stable: verdict lines key off it).
    fn name(&self) -> &str;

    /// The program image under attack.
    fn program(&self) -> &Program;

    /// Builds a loaded, constant-staged and cache-warmed template CPU.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults from loading or the warm-up run.
    fn build(&self, uarch: &UarchConfig) -> Result<Cpu, UarchError>;

    /// Bytes of plaintext the staging writes per execution.
    fn plaintext_len(&self) -> usize;

    /// Total campaign input length (plaintext plus any finished
    /// suffix).
    fn input_len(&self) -> usize;

    /// The fixed plaintext of TVLA fixed-vs-random campaigns.
    fn fixed_plaintext(&self) -> Vec<u8> {
        vec![0x5a; self.plaintext_len()]
    }

    /// Completes a plaintext into a full campaign input (appending
    /// derived public data or victim randomness). Defaults to identity.
    fn finish_input(&self, plaintext: Vec<u8>, _rng: &mut StdRng) -> Vec<u8> {
        plaintext
    }

    /// Draws one campaign input: a uniform random plaintext, finished.
    fn generate(&self, rng: &mut StdRng, _index: usize) -> Vec<u8> {
        let mut plaintext = vec![0u8; self.plaintext_len()];
        rng.fill(&mut plaintext[..]);
        self.finish_input(plaintext, rng)
    }

    /// Whether an input belongs to the TVLA fixed population.
    fn is_fixed_class(&self, input: &[u8]) -> bool {
        input[..self.plaintext_len()] == self.fixed_plaintext()[..]
    }

    /// An owned closure canonicalizing a buffer of raw random bytes
    /// (length [`CipherTarget::input_len`]) into a *valid* campaign
    /// input, re-deriving any computed suffix from the plaintext
    /// prefix — for drivers like the node-level audit that draw inputs
    /// themselves instead of going through [`CipherTarget::generate`]
    /// (owned so it can live inside `'static` audit expressions). The
    /// default treats the raw bytes as already valid (true whenever
    /// the suffix is independent randomness, e.g. the masked-AES mask
    /// bytes); targets with a *derived* suffix (SPECK's appended
    /// ciphertext) must override it, or their models would read
    /// garbage.
    fn input_canonicalizer(&self) -> InputCanonicalizer {
        Arc::new(|raw: &[u8]| raw.to_vec())
    }

    /// Stages one input into a lane (of a cloned CPU or a lockstep
    /// block) before an execution.
    fn stage(&self, cpu: &mut Lane, input: &[u8]);

    /// Stages the execution-invariant memory contract (tables, round
    /// keys) — what [`CipherTarget::build`] does once, exposed for
    /// audits that construct their own bare CPUs.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    fn stage_constants(&self, cpu: &mut Lane) -> Result<(), UarchError>;

    /// Golden-model ciphertext for an input (reference for conformance
    /// checks).
    fn reference(&self, input: &[u8]) -> Vec<u8>;

    /// Reads the ciphertext from a finished execution's memory.
    ///
    /// # Errors
    ///
    /// Propagates memory faults.
    fn output(&self, cpu: &Cpu) -> Result<Vec<u8>, UarchError>;

    /// The target's attack models (at least one [`ModelKind::ValueHw`]
    /// and one [`ModelKind::TransitionHd`]).
    fn models(&self) -> Vec<TargetModel>;

    /// The window TVLA and the per-component characterization analyze
    /// (usually the primary HD model's window).
    fn primary_window(&self) -> WindowHint;

    /// What the static leakage linter (`sca-lint`) needs to know about
    /// this target: the canonical concrete staging of its memory
    /// contract (tables, round keys, one representative plaintext and
    /// mask draw), the taint labelling of the secret / input / mask
    /// regions, and any diagnostic-release spans where the program
    /// intentionally de-blinds public outputs.
    fn lint_spec(&self) -> sca_lint::LintSpec;
}
