//! The rule engine: project-invariant checks over the token stream.
//!
//! Five named rules are enforced (see the README "Correctness tooling"
//! section for the policy):
//!
//! * `hot-path-alloc` — no allocating constructs inside functions marked
//!   `// lint: hot-path`.
//! * `no-panic-decode` — no panicking constructs or raw indexing inside the
//!   decode functions of `snapshot.rs`-shaped files.
//! * `determinism` — no direct iteration over hash maps/sets in
//!   output-producing modules, and no wall-clock reads in wire-format code.
//! * `wire-format-freeze` — the snapshot wire-format constants must match
//!   the committed `snapshot_format.lock`; tag changes require a version
//!   bump, version bumps require a lock refresh.
//! * `durable-io` — inside functions marked `// lint: durable`, every
//!   write must reach an `sync_all`/`sync_data` before the file is renamed
//!   into place or truncated, and before a `checkpoint` acknowledges the
//!   data as durable — or, in the service tier, before a `.send(…)` /
//!   `.respond(…)` acknowledges it to a client.
//!
//! Any diagnostic can be suppressed with a justified
//! `// lint:allow(rule): <why>` comment on the offending line or the line
//! above it. Suppressions without a justification, and suppressions that
//! never fire, are themselves errors — so the allow-list can only shrink.
//!
//! The engine is lexical by design (the workspace is dependency-free, so
//! there is no `syn` to build an AST with). Where a check is a heuristic —
//! e.g. hash-map identifiers are recognised from their declared types in
//! the same file — the heuristic errs towards flagging, and the suppression
//! mechanism documents the sites that are deliberate.

use crate::lexer::{lex, Comment, LexOutput, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// Base names of the modules whose hot paths carry `// lint: hot-path`
/// markers. The `hot-path-alloc` rule fires in any marked function, but a
/// marker outside these files is reported so the list stays deliberate.
const HOT_PATH_FILES: &[&str] = &[
    "hlh.rs",
    "support.rs",
    "season.rs",
    "miner.rs",
    "streaming.rs",
];

/// Base names of the wire-format modules: `no-panic-decode` and the
/// wall-clock half of `determinism` apply here. `protocol.rs` is the
/// service tier's request/response codec — it decodes untrusted network
/// bytes, so the same panic-free contract applies.
const WIRE_FORMAT_FILES: &[&str] = &["snapshot.rs", "protocol.rs"];

/// Base names of output-producing modules: anything iterated here can leak
/// hash-map ordering into mining results, so `determinism` applies.
const OUTPUT_MODULE_FILES: &[&str] = &[
    "hlh.rs",
    "season.rs",
    "miner.rs",
    "streaming.rs",
    "snapshot.rs",
    "report.rs",
];

/// Base names of the modules whose durable-write paths carry
/// `// lint: durable` markers: the facade persistence layer in
/// `src/lib.rs` and the service tier's tenant/flush paths
/// (`crates/service/src/{tenant,service}.rs`). As with hot-path markers,
/// a marker elsewhere is reported so the list stays deliberate.
const DURABLE_FILES: &[&str] = &["lib.rs", "tenant.rs", "service.rs"];

/// Function-name shapes that make a `snapshot.rs` function a *decode*
/// function (it consumes untrusted bytes and must return typed errors).
const DECODE_PREFIXES: &[&str] = &["decode", "read", "parse", "take"];
const DECODE_EXACT: &[&str] = &[
    "wal_read",
    "restore",
    "restore_with",
    "finish",
    "capped",
    "fail",
    "effective_config",
];

/// Method names whose receiver allocates on the hot path.
const ALLOC_METHODS: &[&str] = &[
    "collect",
    "to_vec",
    "clone",
    "cloned",
    "to_owned",
    "to_string",
];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["format", "vec"];
/// Macros that panic.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];
/// Hash-map/-set iteration methods that observe nondeterministic order.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// One finding, pointing at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path the finding was produced for (as given to the engine).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (e.g. `hot-path-alloc`).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `// lint:allow(rule, …): justification` comment.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rules: Vec<String>,
    justified: bool,
    used: bool,
}

/// A parsed `// lint: hot-path` or `// lint: durable` marker awaiting its
/// function.
#[derive(Debug)]
struct HotMarker {
    line: u32,
    consumed: bool,
}

/// Context for one function body found by the brace tracker.
#[derive(Debug, Clone)]
struct FnFrame {
    name: String,
    hot: bool,
    decode: bool,
    durable: bool,
    /// `durable-io` write-state: `true` between a `write`/`write_all` call
    /// and the `sync_all`/`sync_data` that commits it.
    dirty: bool,
}

/// What the brace stack holds: a function body or an anonymous block
/// (closures, match arms, loop bodies keep the enclosing function's frame).
#[derive(Debug, Clone)]
enum Scope {
    Function(FnFrame),
    Block,
}

/// Lints one source file. `file` is only used for reporting and for the
/// base-name rule scoping; `source` is the file contents.
#[must_use]
pub fn lint_source(file: &str, source: &str) -> Vec<Diagnostic> {
    let lexed = lex(source);
    Engine::new(file, &lexed).run()
}

fn base_name(file: &str) -> &str {
    file.rsplit(['/', '\\']).next().unwrap_or(file)
}

struct Engine<'a> {
    file: &'a str,
    base: &'a str,
    tokens: &'a [Token],
    comments: &'a [Comment],
    suppressions: Vec<Suppression>,
    hot_markers: Vec<HotMarker>,
    durable_markers: Vec<HotMarker>,
    skipped: Vec<(usize, usize)>,
    map_idents: Vec<String>,
    diags: Vec<Diagnostic>,
}

impl<'a> Engine<'a> {
    fn new(file: &'a str, lexed: &'a LexOutput) -> Self {
        Engine {
            file,
            base: base_name(file),
            tokens: &lexed.tokens,
            comments: &lexed.comments,
            suppressions: Vec::new(),
            hot_markers: Vec::new(),
            durable_markers: Vec::new(),
            skipped: Vec::new(),
            map_idents: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<Diagnostic> {
        self.parse_comments();
        self.find_test_regions();
        self.collect_map_idents();
        self.walk();
        self.finish_markers_and_suppressions();
        self.apply_suppressions()
    }

    fn emit(&mut self, token: &Token, rule: &'static str, message: String) {
        self.diags.push(Diagnostic {
            file: self.file.to_string(),
            line: token.line,
            col: token.col,
            rule,
            message,
        });
    }

    // ---- comment directives -------------------------------------------

    fn parse_comments(&mut self) {
        for c in self.comments {
            let text = c.text.trim();
            if let Some(rest) = text.strip_prefix("lint:allow(") {
                let Some(close) = rest.find(')') else {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "suppression-syntax",
                        message: "malformed `lint:allow` — missing `)`".into(),
                    });
                    continue;
                };
                let rules: Vec<String> = rest[..close]
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect();
                let tail = rest[close + 1..].trim_start();
                let justified = tail.strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
                if !justified {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "suppression-syntax",
                        message: "`lint:allow` requires a justification: \
                                  `// lint:allow(rule): <why this is sound>`"
                            .into(),
                    });
                }
                self.suppressions.push(Suppression {
                    line: c.line,
                    rules,
                    justified,
                    used: false,
                });
            } else if text == "lint: hot-path" {
                self.hot_markers.push(HotMarker {
                    line: c.line,
                    consumed: false,
                });
                if !HOT_PATH_FILES.contains(&self.base) && !self.base.starts_with("fixture_") {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "hot-path-alloc",
                        message: format!(
                            "`lint: hot-path` marker in `{}`, which is not a registered \
                             hot-path module — extend HOT_PATH_FILES in stpm-lint deliberately",
                            self.base
                        ),
                    });
                }
            } else if text == "lint: durable" {
                self.durable_markers.push(HotMarker {
                    line: c.line,
                    consumed: false,
                });
                if !DURABLE_FILES.contains(&self.base) && !self.base.starts_with("fixture_") {
                    self.diags.push(Diagnostic {
                        file: self.file.to_string(),
                        line: c.line,
                        col: 1,
                        rule: "durable-io",
                        message: format!(
                            "`lint: durable` marker in `{}`, which is not a registered \
                             durable-write module — extend DURABLE_FILES in stpm-lint \
                             deliberately",
                            self.base
                        ),
                    });
                }
            } else if text.starts_with("lint:") || text.starts_with("lint ") {
                self.diags.push(Diagnostic {
                    file: self.file.to_string(),
                    line: c.line,
                    col: 1,
                    rule: "suppression-syntax",
                    message: format!("unrecognised lint directive: `//{}`", c.text),
                });
            }
        }
    }

    // ---- #[cfg(test)] regions -----------------------------------------

    /// Records token ranges covered by `#[cfg(test)]` items so test code
    /// (which unwraps and indexes freely, on purpose) is not linted.
    fn find_test_regions(&mut self) {
        let t = self.tokens;
        let mut i = 0;
        while i + 6 < t.len() {
            let is_cfg_test = t[i].is_punct('#')
                && t[i + 1].is_punct('[')
                && t[i + 2].is_ident("cfg")
                && t[i + 3].is_punct('(')
                && t[i + 4].is_ident("test")
                && t[i + 5].is_punct(')')
                && t[i + 6].is_punct(']');
            if !is_cfg_test {
                i += 1;
                continue;
            }
            let mut j = i + 7;
            // Skip any further attributes on the same item.
            while j < t.len() && t[j].is_punct('#') {
                let mut depth = 0usize;
                j += 1; // past `#`
                while j < t.len() {
                    if t[j].is_punct('[') {
                        depth += 1;
                    } else if t[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            // Skip to the end of the item: the matching `}` of its first
            // top-level `{`, or a terminating `;` (e.g. `use` under cfg).
            let mut depth = 0usize;
            while j < t.len() {
                if t[j].is_punct('{') {
                    depth += 1;
                } else if t[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t[j].is_punct(';') && depth == 0 {
                    break;
                }
                j += 1;
            }
            self.skipped.push((i, j));
            i = j + 1;
        }
    }

    fn in_skipped(&self, idx: usize) -> bool {
        self.skipped.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    // ---- hash-map identifier collection -------------------------------

    /// Collects identifiers declared (field or binding) with a hash-map or
    /// hash-set type in this file. Purely lexical: looks for
    /// `name : … HashMap <` / `name = FxHashMap :: default` shapes.
    fn collect_map_idents(&mut self) {
        let t = self.tokens;
        for (i, tok) in t.iter().enumerate() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let is_map_type = matches!(
                tok.text.as_str(),
                "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet"
            );
            if !is_map_type {
                continue;
            }
            // Walk backwards over a path (`std :: collections ::` etc.).
            let mut j = i;
            while j >= 2 && t[j - 1].is_punct(':') && t[j - 2].is_punct(':') {
                j -= 3; // skip `ident ::`
            }
            // Skip reference/mutability sigils so `m: &FxHashMap<…>` params
            // register `m` as a map identifier too.
            while j >= 1
                && (t[j - 1].is_punct('&')
                    || t[j - 1].is_ident("mut")
                    || t[j - 1].kind == TokenKind::Lifetime)
            {
                j -= 1;
            }
            if j == 0 {
                continue;
            }
            // `name : Path` (field or typed binding) …
            if t[j - 1].is_punct(':') && j >= 2 && t[j - 2].kind == TokenKind::Ident {
                self.map_idents.push(t[j - 2].text.clone());
            }
            // … or `let [mut] name = Path::default()`.
            if t[j - 1].is_punct('=') && j >= 2 && t[j - 2].kind == TokenKind::Ident {
                self.map_idents.push(t[j - 2].text.clone());
            }
        }
        self.map_idents.sort();
        self.map_idents.dedup();
    }

    // ---- main walk ----------------------------------------------------

    fn walk(&mut self) {
        let t = self.tokens;
        let wire_file = WIRE_FORMAT_FILES.contains(&self.base);
        let output_file = OUTPUT_MODULE_FILES.contains(&self.base);

        let mut stack: Vec<Scope> = Vec::new();
        let mut pending_fn: Option<FnFrame> = None;
        // Bracket depth inside a pending `fn` signature, so the `;` of an
        // array type in the parameter list (`[u8; 4]`) is not mistaken for
        // the end of a bodyless trait-method declaration.
        let mut sig_depth = 0usize;

        for i in 0..t.len() {
            if self.in_skipped(i) {
                continue;
            }
            let tok = &t[i];

            // --- function tracking ---
            if tok.is_ident("fn") && i + 1 < t.len() && t[i + 1].kind == TokenKind::Ident {
                let name = t[i + 1].text.clone();
                let hot = self.take_hot_marker(tok.line);
                let durable = self.take_durable_marker(tok.line);
                let decode = wire_file && Self::is_decode_fn(&name);
                pending_fn = Some(FnFrame {
                    name,
                    hot,
                    decode,
                    durable,
                    dirty: false,
                });
                sig_depth = 0;
            } else if tok.is_punct('{') {
                match pending_fn.take() {
                    Some(frame) => stack.push(Scope::Function(frame)),
                    None => stack.push(Scope::Block),
                }
            } else if tok.is_punct('}') {
                stack.pop();
            } else if pending_fn.is_some() {
                if tok.is_punct('(') || tok.is_punct('[') {
                    sig_depth += 1;
                } else if tok.is_punct(')') || tok.is_punct(']') {
                    sig_depth = sig_depth.saturating_sub(1);
                } else if tok.is_punct(';') && sig_depth == 0 {
                    // A trait-method declaration ends without a body.
                    pending_fn = None;
                }
            }

            let frame = stack.iter().rev().find_map(|s| match s {
                Scope::Function(f) => Some(f),
                Scope::Block => None,
            });

            // --- hot-path-alloc ---
            if frame.is_some_and(|f| f.hot) {
                self.check_hot_alloc(i);
            }

            // --- no-panic-decode ---
            if let Some(f) = frame {
                if f.decode {
                    let fn_name = f.name.clone();
                    self.check_panic_free(i, &fn_name);
                }
            }

            // --- determinism: map iteration in output modules ---
            if output_file && frame.is_some() {
                self.check_map_iteration(i);
            }

            // --- durable-io: fsync-before-publish in marked functions ---
            self.check_durable_io(i, &mut stack);

            // --- determinism: wall clock in wire-format code ---
            if wire_file
                && tok.kind == TokenKind::Ident
                && (tok.text == "Instant" || tok.text == "SystemTime")
            {
                let text = tok.text.clone();
                self.emit(
                    &t[i],
                    "determinism",
                    format!(
                        "`{text}` in wire-format code — snapshot/WAL bytes must not \
                         depend on wall-clock reads"
                    ),
                );
            }
        }
    }

    fn take_hot_marker(&mut self, fn_line: u32) -> bool {
        for m in &mut self.hot_markers {
            if !m.consumed && m.line < fn_line {
                m.consumed = true;
                return true;
            }
        }
        false
    }

    fn take_durable_marker(&mut self, fn_line: u32) -> bool {
        for m in &mut self.durable_markers {
            if !m.consumed && m.line < fn_line {
                m.consumed = true;
                return true;
            }
        }
        false
    }

    /// The `durable-io` state machine, applied to the innermost enclosing
    /// `// lint: durable` function (closures and blocks inherit it, matching
    /// how retry closures wrap the actual I/O). A `write`/`write_all` marks
    /// the frame dirty; `sync_all`/`sync_data` commits it; while dirty, a
    /// `rename` (publish), `set_len` (truncate), `checkpoint`
    /// (acknowledgment) or `send`/`respond` (client acknowledgment in the
    /// service tier) is flagged. The walk is lexical, so branch-local
    /// syncs satisfy later branches — the rule is a tripwire for reordered
    /// I/O, not a path-sensitive prover; suppress with a justification where
    /// control flow makes a lexically-dirty publish sound.
    fn check_durable_io(&mut self, i: usize, stack: &mut [Scope]) {
        let t = self.tokens;
        let tok = &t[i];
        if tok.kind != TokenKind::Ident || !t.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            return;
        }
        let Some(frame) = stack.iter_mut().rev().find_map(|s| match s {
            Scope::Function(f) if f.durable => Some(f),
            _ => None,
        }) else {
            return;
        };
        let method = i >= 1 && t[i - 1].is_punct('.');
        match tok.text.as_str() {
            "write" | "write_all" if method => frame.dirty = true,
            "sync_all" | "sync_data" if method => frame.dirty = false,
            "rename" if frame.dirty => {
                self.emit(
                    tok,
                    "durable-io",
                    "`rename` publishes bytes that were never synced — a `lint: durable` \
                     function must `sync_all` every write before renaming the file into place"
                        .into(),
                );
            }
            "set_len" if method && frame.dirty => {
                self.emit(
                    tok,
                    "durable-io",
                    "`set_len` truncates over an unsynced write — a `lint: durable` function \
                     must `sync_all` every write before truncating"
                        .into(),
                );
            }
            "checkpoint" if method && frame.dirty => {
                self.emit(
                    tok,
                    "durable-io",
                    "`checkpoint` acknowledges granules whose write-ahead-log append was \
                     never synced — a `lint: durable` function must `sync_all` the WAL \
                     before acknowledging the batch"
                        .into(),
                );
            }
            "send" | "respond" if method && frame.dirty => {
                let verb = tok.text.clone();
                self.emit(
                    tok,
                    "durable-io",
                    format!(
                        "`.{verb}(…)` acknowledges an append to the client over a write \
                         that was never synced — a `lint: durable` function must \
                         `sync_all` before the acknowledgment leaves the process"
                    ),
                );
            }
            _ => {}
        }
    }

    fn is_decode_fn(name: &str) -> bool {
        DECODE_EXACT.contains(&name)
            || DECODE_PREFIXES.iter().any(|p| {
                name.starts_with(p) && (name.len() == p.len() || name.as_bytes()[p.len()] == b'_')
            })
    }

    fn check_hot_alloc(&mut self, i: usize) {
        let t = self.tokens;
        let tok = &t[i];
        if tok.kind != TokenKind::Ident {
            return;
        }
        let next = t.get(i + 1);
        let next2 = t.get(i + 2);
        let next3 = t.get(i + 3);
        // `Vec::new`, `Vec::with_capacity`, `Box::new`, `String::new`…
        if matches!(
            tok.text.as_str(),
            "Vec" | "Box" | "String" | "BTreeMap" | "HashMap" | "FxHashMap"
        ) && next.is_some_and(|n| n.is_punct(':'))
            && next2.is_some_and(|n| n.is_punct(':'))
        {
            if let Some(m) = next3 {
                if matches!(
                    m.text.as_str(),
                    "new" | "with_capacity" | "from" | "default"
                ) {
                    let (ty, method) = (tok.text.clone(), m.text.clone());
                    self.emit(
                        tok,
                        "hot-path-alloc",
                        format!("`{ty}::{method}` allocates inside a `lint: hot-path` function"),
                    );
                    return;
                }
            }
        }
        // allocating macros: `format!`, `vec!`
        if ALLOC_MACROS.contains(&tok.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
            let name = tok.text.clone();
            self.emit(
                tok,
                "hot-path-alloc",
                format!("`{name}!` allocates inside a `lint: hot-path` function"),
            );
            return;
        }
        // allocating methods: `.collect()`, `.to_vec()`, `.clone()`…
        if ALLOC_METHODS.contains(&tok.text.as_str())
            && i > 0
            && t[i - 1].is_punct('.')
            && next.is_some_and(|n| n.is_punct('('))
        {
            let name = tok.text.clone();
            self.emit(
                tok,
                "hot-path-alloc",
                format!("`.{name}()` allocates inside a `lint: hot-path` function"),
            );
        }
    }

    fn check_panic_free(&mut self, i: usize, fn_name: &str) {
        let t = self.tokens;
        let tok = &t[i];
        let next = t.get(i + 1);
        if tok.kind == TokenKind::Ident {
            // `.unwrap()` / `.expect(…)`
            if matches!(tok.text.as_str(), "unwrap" | "expect")
                && i > 0
                && t[i - 1].is_punct('.')
                && next.is_some_and(|n| n.is_punct('('))
            {
                let name = tok.text.clone();
                self.emit(
                    tok,
                    "no-panic-decode",
                    format!(
                        "`.{name}()` in decode function `{fn_name}` — corrupt input must \
                         surface as a typed `Error::Snapshot*`, not a panic"
                    ),
                );
                return;
            }
            // panicking macros
            if PANIC_MACROS.contains(&tok.text.as_str()) && next.is_some_and(|n| n.is_punct('!')) {
                let name = tok.text.clone();
                self.emit(
                    tok,
                    "no-panic-decode",
                    format!(
                        "`{name}!` in decode function `{fn_name}` — return a typed error instead"
                    ),
                );
                return;
            }
        }
        // raw indexing: `expr[…]` — an opening `[` directly after an
        // identifier, `)`, or `]` is an index (attribute `#[…]` and array
        // types `[u8; 8]` are preceded by other puncts).
        if tok.is_punct('[') && i > 0 {
            let prev = &t[i - 1];
            let indexable = prev.kind == TokenKind::Ident && !Self::is_keyword(&prev.text)
                || prev.is_punct(')')
                || prev.is_punct(']');
            if indexable {
                self.emit(
                    tok,
                    "no-panic-decode",
                    format!(
                        "raw indexing in decode function `{fn_name}` — use a checked \
                         accessor (`get`, `ByteReader::take`) so truncation is a typed error"
                    ),
                );
            }
        }
    }

    fn is_keyword(word: &str) -> bool {
        matches!(
            word,
            "in" | "as"
                | "mut"
                | "ref"
                | "let"
                | "return"
                | "break"
                | "continue"
                | "if"
                | "else"
                | "match"
                | "move"
                | "for"
                | "while"
                | "loop"
                | "const"
                | "static"
                | "where"
                | "dyn"
                | "impl"
        )
    }

    fn check_map_iteration(&mut self, i: usize) {
        let t = self.tokens;
        let tok = &t[i];
        // `name.iter()` / `.keys()` / … where `name` is hash-map-typed.
        if tok.kind == TokenKind::Ident
            && MAP_ITER_METHODS.contains(&tok.text.as_str())
            && i >= 2
            && t[i - 1].is_punct('.')
            && t[i - 2].kind == TokenKind::Ident
            && self.map_idents.contains(&t[i - 2].text)
            && t.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            let (recv, method) = (t[i - 2].text.clone(), tok.text.clone());
            self.emit(
                tok,
                "determinism",
                format!(
                    "iteration over hash map/set `{recv}` via `.{method}()` in an \
                     output-producing module — hash order is nondeterministic; iterate a \
                     sorted view or suppress with a justification"
                ),
            );
            return;
        }
        // `for x in &name {` / `for x in &mut name {` direct borrow loops.
        if tok.kind == TokenKind::Ident && self.map_idents.contains(&tok.text) && i >= 1 {
            let mut j = i;
            // allow `self . name`
            if j >= 2 && t[j - 1].is_punct('.') && t[j - 2].is_ident("self") {
                j -= 2;
            }
            let borrowed = j >= 1 && t[j - 1].is_punct('&')
                || (j >= 2 && t[j - 1].is_ident("mut") && t[j - 2].is_punct('&'));
            let after_in = {
                let k = if borrowed {
                    if j >= 2 && t[j - 1].is_ident("mut") {
                        j - 2
                    } else {
                        j - 1
                    }
                } else {
                    j
                };
                k >= 1 && t[k - 1].is_ident("in")
            };
            if borrowed && after_in && t.get(i + 1).is_some_and(|n| n.is_punct('{')) {
                let name = tok.text.clone();
                self.emit(
                    tok,
                    "determinism",
                    format!(
                        "`for … in &{name}` iterates a hash map/set directly in an \
                         output-producing module — hash order is nondeterministic"
                    ),
                );
            }
        }
    }

    // ---- wrap-up ------------------------------------------------------

    fn finish_markers_and_suppressions(&mut self) {
        let unconsumed: Vec<u32> = self
            .hot_markers
            .iter()
            .filter(|m| !m.consumed)
            .map(|m| m.line)
            .collect();
        for line in unconsumed {
            self.diags.push(Diagnostic {
                file: self.file.to_string(),
                line,
                col: 1,
                rule: "hot-path-alloc",
                message: "`lint: hot-path` marker is not followed by a function".into(),
            });
        }
        let unconsumed_durable: Vec<u32> = self
            .durable_markers
            .iter()
            .filter(|m| !m.consumed)
            .map(|m| m.line)
            .collect();
        for line in unconsumed_durable {
            self.diags.push(Diagnostic {
                file: self.file.to_string(),
                line,
                col: 1,
                rule: "durable-io",
                message: "`lint: durable` marker is not followed by a function".into(),
            });
        }
    }

    /// Applies suppressions: a diagnostic on line `L` is silenced by a
    /// justified `lint:allow` naming its rule on line `L` or `L - 1`.
    /// Unused suppressions become diagnostics of their own.
    fn apply_suppressions(mut self) -> Vec<Diagnostic> {
        let mut kept = Vec::new();
        for d in std::mem::take(&mut self.diags) {
            if d.rule == "suppression-syntax" || d.rule == "unused-suppression" {
                kept.push(d);
                continue;
            }
            // Same-line suppressions take precedence over previous-line
            // ones, so adjacent annotated lines each consume their own.
            let matches_at = |s: &Suppression, line: u32| {
                s.justified && s.line == line && s.rules.iter().any(|r| r == d.rule)
            };
            let suppressed = match self
                .suppressions
                .iter_mut()
                .position(|s| matches_at(s, d.line))
            {
                Some(i) => Some(i),
                None => self
                    .suppressions
                    .iter_mut()
                    .position(|s| d.line > 0 && matches_at(s, d.line - 1)),
            }
            .map(|i| &mut self.suppressions[i]);
            match suppressed {
                Some(s) => s.used = true,
                None => kept.push(d),
            }
        }
        for s in &self.suppressions {
            if s.justified && !s.used {
                kept.push(Diagnostic {
                    file: self.file.to_string(),
                    line: s.line,
                    col: 1,
                    rule: "unused-suppression",
                    message: format!(
                        "`lint:allow({})` does not suppress anything — remove it",
                        s.rules.join(", ")
                    ),
                });
            }
        }
        kept.sort_by_key(|a| (a.line, a.col));
        kept
    }
}

// ---- wire-format-freeze ----------------------------------------------

/// The wire-format constants extracted from a `snapshot.rs` source, keyed
/// by constant name with the raw initializer text as the value.
pub type WireConstants = BTreeMap<String, String>;

/// Constant names that participate in the freeze. `*_VERSION` entries are
/// the bump keys; everything else is a frozen tag.
const FROZEN_PREFIXES: &[&str] = &["SEC_", "KIND_"];
const FROZEN_EXACT: &[&str] = &[
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "WAL_MAGIC",
    "WAL_VERSION",
];

fn is_frozen_const(name: &str) -> bool {
    FROZEN_EXACT.contains(&name) || FROZEN_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Extracts the frozen wire-format constants (`SNAPSHOT_*`, `WAL_*`,
/// `SEC_*`, `KIND_*`) from snapshot source text.
#[must_use]
pub fn extract_wire_constants(source: &str) -> WireConstants {
    let lexed = lex(source);
    let t = &lexed.tokens;
    let mut out = WireConstants::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].is_ident("const") && i + 1 < t.len() && t[i + 1].kind == TokenKind::Ident {
            let name = &t[i + 1].text;
            if is_frozen_const(name) {
                // Find the `=` at bracket depth 0 (the type may contain a
                // `;`, e.g. `[u8; 8]`), then capture raw tokens up to the
                // terminating `;`, also at depth 0.
                let mut j = i + 2;
                let mut depth = 0usize;
                while j < t.len() {
                    if t[j].is_punct('[') || t[j].is_punct('(') {
                        depth += 1;
                    } else if t[j].is_punct(']') || t[j].is_punct(')') {
                        depth = depth.saturating_sub(1);
                    } else if depth == 0 && (t[j].is_punct('=') || t[j].is_punct(';')) {
                        break;
                    }
                    j += 1;
                }
                if j < t.len() && t[j].is_punct('=') {
                    let mut value = String::new();
                    j += 1;
                    while j < t.len() && !t[j].is_punct(';') {
                        if !value.is_empty() {
                            value.push(' ');
                        }
                        value.push_str(&t[j].text);
                        j += 1;
                    }
                    out.insert(name.clone(), value);
                }
                i = j;
            }
        }
        i += 1;
    }
    out
}

/// Renders constants in the `snapshot_format.lock` format.
#[must_use]
pub fn render_lock(constants: &WireConstants) -> String {
    let mut out = String::from(
        "# Snapshot/WAL wire-format lock. Regenerate ONLY together with a\n\
         # format-version bump: cargo run -p stpm-lint -- --write-format-lock\n",
    );
    for (name, value) in constants {
        out.push_str(name);
        out.push_str(" = ");
        out.push_str(value);
        out.push('\n');
    }
    out
}

/// Parses a lock file produced by [`render_lock`].
#[must_use]
pub fn parse_lock(lock: &str) -> WireConstants {
    let mut out = WireConstants::new();
    for line in lock.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, value)) = line.split_once('=') {
            out.insert(name.trim().to_string(), value.trim().to_string());
        }
    }
    out
}

/// Which version key guards a given frozen constant.
fn version_key_for(name: &str) -> &'static str {
    if name.starts_with("WAL_") {
        "WAL_VERSION"
    } else {
        "SNAPSHOT_VERSION"
    }
}

/// Checks the `wire-format-freeze` rule: `current` (extracted from
/// `snapshot.rs`) against `locked` (the committed lock file). Returns
/// diagnostics attributed to `file`.
#[must_use]
pub fn check_format_lock(
    file: &str,
    current: &WireConstants,
    locked: &WireConstants,
) -> Vec<Diagnostic> {
    fn emit_into(diags: &mut Vec<Diagnostic>, file: &str, message: String) {
        diags.push(Diagnostic {
            file: file.to_string(),
            line: 1,
            col: 1,
            rule: "wire-format-freeze",
            message,
        });
    }
    let mut diags = Vec::new();
    let version_bumped = |key: &str| current.get(key) != locked.get(key);

    for (name, value) in current {
        if name.ends_with("_VERSION") {
            continue;
        }
        match locked.get(name) {
            None => {
                if !version_bumped(version_key_for(name)) {
                    emit_into(
                        &mut diags,
                        file,
                        format!(
                            "new wire-format constant `{name}` ({value}) without a \
                             `{}` bump — readers cannot distinguish the formats",
                            version_key_for(name)
                        ),
                    );
                }
            }
            Some(locked_value) if locked_value != value => {
                if !version_bumped(version_key_for(name)) {
                    emit_into(
                        &mut diags,
                        file,
                        format!(
                            "wire-format constant `{name}` changed ({locked_value} -> {value}) \
                             without a `{}` bump — old snapshots would be misread",
                            version_key_for(name)
                        ),
                    );
                }
            }
            Some(_) => {}
        }
    }
    for name in locked.keys() {
        if name.ends_with("_VERSION") || current.contains_key(name) {
            continue;
        }
        if !version_bumped(version_key_for(name)) {
            emit_into(
                &mut diags,
                file,
                format!(
                    "wire-format constant `{name}` was removed without a `{}` bump",
                    version_key_for(name)
                ),
            );
        }
    }
    // A version bump (or any drift while bumped) must be accompanied by a
    // lock refresh, so the next change diffs against the right baseline.
    if diags.is_empty() && current != locked {
        emit_into(
            &mut diags,
            file,
            "snapshot wire format changed with a version bump — refresh the lock: \
             cargo run -p stpm-lint -- --write-format-lock"
                .into(),
        );
    }
    diags
}
