//! Declarative sweep specs: a parameter grid in a small TOML subset.
//!
//! A spec file is a `[sweep]` header block (defaults shared by every
//! cell) followed by one or more `[grid]` blocks. Each `[grid]` block is
//! expanded to the cross product of its dimensions; the sweep's cell list
//! is the concatenation of the blocks in file order. That makes ragged
//! matrices declarative — Table 4 runs different policy sets per trace,
//! so it is three `[grid]` blocks, not one cross product:
//!
//! ```toml
//! [sweep]
//! name = "table4"
//! seed = 2025
//! jobs = 406
//!
//! [grid]
//! trace = ["base"]
//! scheduler = ["rubick", "sia", "synergy"]
//!
//! [grid]
//! trace = ["mt"]
//! scheduler = ["rubick", "antman"]
//! ```
//!
//! **Cell order is part of the format.** Within a block, dimensions nest
//! in the fixed canonical order `trace` → `scheduler` → `jobs` → `load`
//! → `large_frac` → `nodes` → `chaos_rate` → `chaos_seed` → `seed` →
//! `refit` (outermost first), each dimension iterating its values in
//! file order.
//! Output rows are emitted in exactly this order at any worker-thread
//! count, so sweep output is byte-identical across `--parallelism`
//! settings and reruns.
//!
//! Supported TOML subset: `[section]` headers, `key = value` pairs,
//! `#` comments, double-quoted strings, numbers, and flat arrays of
//! either. Anything else — and any unknown section or key — is a parse
//! error with a line number: a typo'd dimension silently becoming a
//! default would corrupt an experiment.

use super::{ChaosKnobs, ScenarioSpec, TraceKind};
use std::fmt;

/// Hard cap on cells per sweep — a mistyped grid should fail, not melt
/// the machine.
pub const MAX_CELLS: usize = 4096;

/// Errors from parsing or expanding a sweep spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// A line could not be parsed (1-based line number).
    Parse {
        /// Line number in the spec text.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The spec has no `[grid]` block, or a dimension has no values.
    EmptyGrid(String),
    /// The grid expands to more than [`MAX_CELLS`] cells.
    TooLarge(usize),
    /// A cell failed [`ScenarioSpec::validate`].
    Invalid(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Parse { line, message } => write!(f, "line {line}: {message}"),
            SweepError::EmptyGrid(what) => write!(f, "empty grid: {what}"),
            SweepError::TooLarge(n) => {
                write!(f, "grid expands to {n} cells (maximum {MAX_CELLS})")
            }
            SweepError::Invalid(msg) => write!(f, "invalid cell: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One raw spec value: a number token (kept raw so u64 seeds survive) or
/// a string.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(String),
    Str(String),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Str(_) => "string",
        }
    }
}

/// One `[grid]` block: every dimension, already typed. Missing
/// dimensions fall back to single-value defaults from the `[sweep]`
/// block.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBlock {
    /// `trace` dimension (default `[base]`).
    pub trace: Vec<TraceKind>,
    /// `scheduler` dimension (default `[rubick]`).
    pub scheduler: Vec<String>,
    /// `jobs` dimension (default: the `[sweep]` job count).
    pub jobs: Option<Vec<usize>>,
    /// `load` dimension (default `[1.0]`).
    pub load: Vec<f64>,
    /// `large_frac` dimension (default: unset, i.e. the trace's own mix).
    pub large_frac: Vec<Option<f64>>,
    /// `nodes` dimension (default `[8]`).
    pub nodes: Vec<usize>,
    /// `chaos_rate` dimension, failures/node/hour; `0` disables chaos
    /// for the cell (default `[0]`).
    pub chaos_rate: Vec<f64>,
    /// `chaos_seed` dimension (default `[0]`).
    pub chaos_seed: Vec<u64>,
    /// `seed` dimension (default: the `[sweep]` seed).
    pub seed: Option<Vec<u64>>,
    /// `refit` dimension, the online-refit material-change threshold;
    /// `0` keeps the offline fit frozen for the cell (default `[0]`).
    pub refit: Vec<f64>,
}

impl Default for GridBlock {
    fn default() -> Self {
        GridBlock {
            trace: vec![TraceKind::Base],
            scheduler: vec!["rubick".to_string()],
            jobs: None,
            load: vec![1.0],
            large_frac: vec![None],
            nodes: vec![8],
            chaos_rate: vec![0.0],
            chaos_seed: vec![0],
            seed: None,
            refit: vec![0.0],
        }
    }
}

/// A parsed sweep spec: shared defaults plus the grid blocks, in file
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (shown in logs and the JSONL header).
    pub name: String,
    /// Default oracle/trace seed for every cell.
    pub seed: u64,
    /// Default job count at load 1.0 for every cell.
    pub jobs: usize,
    /// Trace span in hours for every cell.
    pub duration_hours: f64,
    /// The grid blocks, in file order.
    pub grids: Vec<GridBlock>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            name: "sweep".to_string(),
            seed: 2025,
            jobs: 406,
            duration_hours: 12.0,
            grids: Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    Sweep,
    Grid(usize),
}

impl SweepSpec {
    /// Parses a spec from text. See the module docs for the format.
    ///
    /// # Errors
    ///
    /// [`SweepError::Parse`] with the 1-based line number, or
    /// [`SweepError::EmptyGrid`] when no `[grid]` block exists.
    pub fn parse(text: &str) -> Result<SweepSpec, SweepError> {
        let mut spec = SweepSpec::default();
        let mut section = Section::None;
        let mut seen_keys: Vec<(Section, String)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(name) = header.strip_suffix(']') else {
                    return Err(parse_err(lineno, "unterminated section header"));
                };
                section = match name.trim() {
                    "sweep" => Section::Sweep,
                    "grid" => {
                        spec.grids.push(GridBlock::default());
                        Section::Grid(spec.grids.len() - 1)
                    }
                    other => {
                        return Err(parse_err(
                            lineno,
                            format!("unknown section '[{other}]' (sweep|grid)"),
                        ))
                    }
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(parse_err(
                    lineno,
                    format!("expected 'key = value', got '{line}'"),
                ));
            };
            let key = key.trim().to_string();
            let values = parse_values(value.trim(), lineno)?;
            if values.is_empty() {
                return Err(parse_err(
                    lineno,
                    format!("dimension '{key}' has no values"),
                ));
            }
            if seen_keys.contains(&(section, key.clone())) {
                return Err(parse_err(
                    lineno,
                    format!("key '{key}' given twice in this block"),
                ));
            }
            seen_keys.push((section, key.clone()));
            match section {
                Section::None => {
                    return Err(parse_err(
                        lineno,
                        format!("key '{key}' before any [sweep] or [grid] section"),
                    ))
                }
                Section::Sweep => apply_sweep_key(&mut spec, &key, &values, lineno)?,
                Section::Grid(i) => apply_grid_key(&mut spec.grids[i], &key, &values, lineno)?,
            }
        }
        if spec.grids.is_empty() {
            return Err(SweepError::EmptyGrid(
                "the spec defines no [grid] block".to_string(),
            ));
        }
        Ok(spec)
    }

    /// Expands the grid blocks into the ordered cell list (see the module
    /// docs for the canonical dimension nesting order).
    ///
    /// # Errors
    ///
    /// [`SweepError::TooLarge`] past [`MAX_CELLS`], or
    /// [`SweepError::Invalid`] when a cell fails validation.
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, SweepError> {
        let mut cells = Vec::new();
        for grid in &self.grids {
            let jobs = grid.jobs.clone().unwrap_or_else(|| vec![self.jobs]);
            let seeds = grid.seed.clone().unwrap_or_else(|| vec![self.seed]);
            for &trace in &grid.trace {
                for scheduler in &grid.scheduler {
                    for &jobs in &jobs {
                        for &load in &grid.load {
                            for &large_frac in &grid.large_frac {
                                for &nodes in &grid.nodes {
                                    for &chaos_rate in &grid.chaos_rate {
                                        for &chaos_seed in &grid.chaos_seed {
                                            for &seed in &seeds {
                                                for &refit in &grid.refit {
                                                    let chaos =
                                                        (chaos_rate > 0.0).then_some(ChaosKnobs {
                                                            failure_rate_per_hour: chaos_rate,
                                                            seed: chaos_seed,
                                                        });
                                                    let cell = ScenarioSpec {
                                                        scheduler: scheduler.clone(),
                                                        trace,
                                                        jobs,
                                                        load,
                                                        large_frac,
                                                        seed,
                                                        nodes,
                                                        duration_hours: self.duration_hours,
                                                        chaos,
                                                        refit: (refit > 0.0).then_some(refit),
                                                    };
                                                    cell.validate().map_err(|e| {
                                                        SweepError::Invalid(format!(
                                                            "{}: {e}",
                                                            cell.label()
                                                        ))
                                                    })?;
                                                    if cells.len() >= MAX_CELLS {
                                                        return Err(SweepError::TooLarge(
                                                            self.cell_count(),
                                                        ));
                                                    }
                                                    cells.push(cell);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Number of cells the grids expand to (without building them).
    pub fn cell_count(&self) -> usize {
        self.grids
            .iter()
            .map(|g| {
                g.trace.len()
                    * g.scheduler.len()
                    * g.jobs.as_ref().map_or(1, Vec::len)
                    * g.load.len()
                    * g.large_frac.len()
                    * g.nodes.len()
                    * g.chaos_rate.len()
                    * g.chaos_seed.len()
                    * g.seed.as_ref().map_or(1, Vec::len)
                    * g.refit.len()
            })
            .sum()
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> SweepError {
    SweepError::Parse {
        line,
        message: message.into(),
    }
}

/// Strips a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses a value position: a scalar or a flat `[a, b, c]` array.
fn parse_values(text: &str, lineno: usize) -> Result<Vec<Value>, SweepError> {
    if let Some(inner) = text.strip_prefix('[') {
        let Some(inner) = inner.strip_suffix(']') else {
            return Err(parse_err(
                lineno,
                "unterminated array (arrays must be on one line)",
            ));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Vec::new());
        }
        split_array_items(inner)
            .into_iter()
            .map(|item| parse_scalar(item.trim(), lineno))
            .collect()
    } else {
        Ok(vec![parse_scalar(text, lineno)?])
    }
}

/// Splits array items on commas outside of quotes.
fn split_array_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&inner[start..]);
    items
}

fn parse_scalar(text: &str, lineno: usize) -> Result<Value, SweepError> {
    if let Some(rest) = text.strip_prefix('"') {
        let Some(s) = rest.strip_suffix('"') else {
            return Err(parse_err(lineno, format!("unterminated string {text}")));
        };
        return Ok(Value::Str(s.to_string()));
    }
    if text.parse::<f64>().is_ok() {
        return Ok(Value::Num(text.to_string()));
    }
    Err(parse_err(
        lineno,
        format!("cannot parse value '{text}' (expected a number or a \"string\")"),
    ))
}

/// One scalar (non-array) value, or an error naming the key.
fn scalar<'v>(key: &str, values: &'v [Value], lineno: usize) -> Result<&'v Value, SweepError> {
    match values {
        [one] => Ok(one),
        _ => Err(parse_err(
            lineno,
            format!("[sweep] key '{key}' takes a single value, not an array"),
        )),
    }
}

fn num_as<T: std::str::FromStr>(
    key: &str,
    value: &Value,
    expected: &str,
    lineno: usize,
) -> Result<T, SweepError> {
    let Value::Num(raw) = value else {
        return Err(parse_err(
            lineno,
            format!("'{key}' expects {expected}, got a {}", value.type_name()),
        ));
    };
    raw.parse::<T>()
        .map_err(|_| parse_err(lineno, format!("'{key}' expects {expected}, got '{raw}'")))
}

fn str_of(key: &str, value: &Value, lineno: usize) -> Result<String, SweepError> {
    match value {
        Value::Str(s) => Ok(s.clone()),
        Value::Num(_) => Err(parse_err(
            lineno,
            format!("'{key}' expects a \"string\", got a number"),
        )),
    }
}

fn apply_sweep_key(
    spec: &mut SweepSpec,
    key: &str,
    values: &[Value],
    lineno: usize,
) -> Result<(), SweepError> {
    let value = scalar(key, values, lineno)?;
    match key {
        "name" => spec.name = str_of(key, value, lineno)?,
        "seed" => spec.seed = num_as(key, value, "a u64 seed", lineno)?,
        "jobs" => spec.jobs = num_as(key, value, "a job count", lineno)?,
        "duration_hours" => {
            spec.duration_hours = num_as(key, value, "a duration in hours", lineno)?
        }
        other => {
            return Err(parse_err(
                lineno,
                format!("unknown [sweep] key '{other}' (name|seed|jobs|duration_hours)"),
            ))
        }
    }
    Ok(())
}

fn apply_grid_key(
    grid: &mut GridBlock,
    key: &str,
    values: &[Value],
    lineno: usize,
) -> Result<(), SweepError> {
    match key {
        "trace" => {
            grid.trace = values
                .iter()
                .map(|v| {
                    TraceKind::parse(&str_of(key, v, lineno)?).map_err(|e| parse_err(lineno, e))
                })
                .collect::<Result<_, _>>()?
        }
        "scheduler" => {
            grid.scheduler = values
                .iter()
                .map(|v| str_of(key, v, lineno))
                .collect::<Result<_, _>>()?
        }
        "jobs" => {
            grid.jobs = Some(
                values
                    .iter()
                    .map(|v| num_as(key, v, "a job count", lineno))
                    .collect::<Result<_, _>>()?,
            )
        }
        "load" => {
            grid.load = values
                .iter()
                .map(|v| num_as(key, v, "a load factor", lineno))
                .collect::<Result<_, _>>()?
        }
        "large_frac" => {
            grid.large_frac = values
                .iter()
                .map(|v| num_as(key, v, "a fraction in [0, 1]", lineno).map(Some))
                .collect::<Result<_, _>>()?
        }
        "nodes" => {
            grid.nodes = values
                .iter()
                .map(|v| num_as(key, v, "a node count", lineno))
                .collect::<Result<_, _>>()?
        }
        "chaos_rate" => {
            grid.chaos_rate = values
                .iter()
                .map(|v| num_as(key, v, "failures/node/hour", lineno))
                .collect::<Result<_, _>>()?
        }
        "chaos_seed" => {
            grid.chaos_seed = values
                .iter()
                .map(|v| num_as(key, v, "a u64 seed", lineno))
                .collect::<Result<_, _>>()?
        }
        "seed" => {
            grid.seed = Some(
                values
                    .iter()
                    .map(|v| num_as(key, v, "a u64 seed", lineno))
                    .collect::<Result<_, _>>()?,
            )
        }
        "refit" => {
            grid.refit = values
                .iter()
                .map(|v| num_as(key, v, "a refit threshold (0 = frozen)", lineno))
                .collect::<Result<_, _>>()?
        }
        other => {
            return Err(parse_err(
                lineno,
                format!(
                    "unknown [grid] dimension '{other}' (trace|scheduler|jobs|load|\
                     large_frac|nodes|chaos_rate|chaos_seed|seed|refit)"
                ),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE4_STYLE: &str = r#"
# ragged matrix: one block per trace
[sweep]
name = "t4"
seed = 7
jobs = 20

[grid]
trace = ["base"]
scheduler = ["rubick", "sia"]

[grid]
trace = ["mt"]
scheduler = ["rubick", "antman"]
"#;

    #[test]
    fn parses_and_expands_ragged_blocks_in_order() {
        let spec = SweepSpec::parse(TABLE4_STYLE).unwrap();
        assert_eq!(spec.name, "t4");
        assert_eq!(spec.cell_count(), 4);
        let cells = spec.expand().unwrap();
        let labels: Vec<String> = cells
            .iter()
            .map(|c| format!("{}/{}", c.trace.as_str(), c.scheduler))
            .collect();
        assert_eq!(
            labels,
            ["base/rubick", "base/sia", "mt/rubick", "mt/antman"]
        );
        assert!(cells.iter().all(|c| c.seed == 7 && c.jobs == 20));
    }

    #[test]
    fn canonical_nesting_order_is_trace_outermost() {
        let spec = SweepSpec::parse(
            "[sweep]\njobs = 10\n[grid]\ntrace = [\"base\", \"bp\"]\n\
             scheduler = [\"rubick\", \"synergy\"]\nload = [0.5, 1.5]\n",
        )
        .unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 8);
        // trace varies slowest, load fastest.
        let key = |c: &ScenarioSpec| (c.trace.as_str(), c.scheduler.clone(), c.load);
        assert_eq!(key(&cells[0]), ("base", "rubick".into(), 0.5));
        assert_eq!(key(&cells[1]), ("base", "rubick".into(), 1.5));
        assert_eq!(key(&cells[2]), ("base", "synergy".into(), 0.5));
        assert_eq!(key(&cells[4]), ("bp", "rubick".into(), 0.5));
    }

    #[test]
    fn chaos_rate_zero_means_no_chaos_knobs() {
        let spec =
            SweepSpec::parse("[sweep]\njobs = 5\n[grid]\nchaos_rate = [0, 0.2]\nchaos_seed = 9\n")
                .unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].chaos.is_none());
        let knobs = cells[1].chaos.as_ref().unwrap();
        assert_eq!(knobs.failure_rate_per_hour, 0.2);
        assert_eq!(knobs.seed, 9);
    }

    #[test]
    fn rejects_unknown_keys_sections_and_garbage_with_line_numbers() {
        let cases = [
            ("[sweep]\nsede = 5\n[grid]\n", "line 2"),
            ("[swep]\n", "unknown section"),
            (
                "[grid]\nscheduler = [\"a\"]\nwat = 3\n",
                "unknown [grid] dimension",
            ),
            ("seed = 5\n", "before any"),
            ("[grid]\nload 1.0\n", "key = value"),
            ("[grid]\nload = [1.0\n", "unterminated array"),
            ("[grid]\ntrace = \"base\n", "unterminated string"),
            ("[grid]\nload = [1.0]\nload = [2.0]\n", "twice"),
            ("[sweep]\nseed = [1, 2]\n[grid]\n", "single value"),
            ("[grid]\ntrace = [\"philly\"]\n", "unknown trace"),
            ("[grid]\nload = [\"high\"]\n", "got a string"),
            ("[sweep]\nname = 3\n[grid]\n", "got a number"),
            ("[grid]\njobs = [3.5]\n", "'3.5'"),
        ];
        for (text, needle) in cases {
            let err = SweepSpec::parse(text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "spec {text:?} should fail with '{needle}', got '{err}'"
            );
        }
    }

    #[test]
    fn empty_grids_are_rejected() {
        assert!(matches!(
            SweepSpec::parse("[sweep]\nname = \"x\"\n"),
            Err(SweepError::EmptyGrid(_))
        ));
        let err = SweepSpec::parse("[grid]\nscheduler = []\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("no values"), "{err}");
    }

    #[test]
    fn comments_and_quoted_hashes_are_handled() {
        let spec = SweepSpec::parse(
            "# top\n[sweep] # trailing\nname = \"a#b\" # hash inside quotes kept\n[grid]\n",
        )
        .unwrap();
        assert_eq!(spec.name, "a#b");
    }

    #[test]
    fn oversized_grids_are_rejected() {
        let text = format!(
            "[sweep]\njobs = 1\n[grid]\nseed = [{}]\nload = [1, 2, 3, 4, 5]\n",
            (0..1000)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let spec = SweepSpec::parse(&text).unwrap();
        assert!(matches!(spec.expand(), Err(SweepError::TooLarge(5000))));
    }

    #[test]
    fn refit_zero_means_frozen_model() {
        let spec = SweepSpec::parse("[sweep]\njobs = 5\n[grid]\nrefit = [0, 0.15]\n").unwrap();
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells[0].refit.is_none());
        assert_eq!(cells[1].refit, Some(0.15));
        // refit nests innermost: cells differing only in refit are adjacent.
        assert_eq!(cells[0].seed, cells[1].seed);
    }

    #[test]
    fn invalid_cells_name_their_label() {
        let spec = SweepSpec::parse("[sweep]\njobs = 5\n[grid]\nlarge_frac = [2.0]\n").unwrap();
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("large_frac"), "{err}");
    }
}
