//! Feature extraction from PyLite modules, streamed into hashes.
//!
//! Three feature families:
//!
//! 1. **imports** (weight 3.0) — the set of imported module paths. Which
//!    APIs a program touches (`requests` + `os` vs `clipboard` + `re`) is
//!    a strong behavioural fingerprint.
//! 2. **AST kind paths** (weight 1.5) — root-to-node sequences of node
//!    kinds (`FunctionDef/While/Assign`), capturing control-flow shape
//!    independent of identifiers and literals. Attribute names met on
//!    the way (`attr:post`, weight 5.0) name the APIs called.
//! 3. **token n-grams** (weight 1.0) — uni/bi/tri-grams over the
//!    canonical token stream with literals bucketed (`STR`, `INT`), the
//!    classic lexical similarity signal.
//!
//! # Features as byte streams
//!
//! Each feature is a text key (`imp:os.getenv`, `path:/FunctionDef/While`,
//! `attr:post`, `t2:v0 =`) that the embedder hashes twice with FNV-1a:
//! from one seed for its bucket, from another for its sign. FNV-1a is a
//! left fold over bytes, so feeding a key's pieces in order gives the
//! same hash as feeding their concatenation. No key is ever built:
//!
//! * one [`FeatureHash`] carries both seeds through a single pass;
//! * an n-gram is fed as `"t2:"`, a token, `" "`, a token;
//! * a token is a static prefix plus a borrowed body (`.` then `post`);
//! * a kind path continues its parent path's state, so each path feature
//!   hashes only its last segment;
//! * canonical names are read from the module's
//!   [`RenameTable`](minilang::canon::RenameTable), the table
//!   [`canonicalize`](minilang::canon::canonicalize) rewrites through, so
//!   no canonical module is built.
//!
//! The features stream out in the order of the string feature bag that
//! the unit tests keep as the oracle, and hash to the same bits.

use minilang::ast::{Expr, Module, Stmt};
use minilang::canon::RenameTable;

const W_IMPORT: f32 = 3.0;
const W_PATH: f32 = 1.5;
const W_ATTR: f32 = 5.0;
const W_NGRAM: f32 = 1.0;

const FNV_PRIME: u64 = 0x100000001b3;

/// Two FNV-1a states fed the same bytes: one from the standard offset
/// basis, whose value picks the bucket, and one from the sign seed,
/// whose low bit picks the sign.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeatureHash {
    bucket: u64,
    sign: u64,
}

impl FeatureHash {
    /// The state before any byte.
    const SEED: FeatureHash = FeatureHash {
        bucket: 0xcbf29ce484222325,
        sign: 0x9e3779b97f4a7c15,
    };

    /// The state after `piece` follows everything fed so far.
    fn feed(mut self, piece: &str) -> Self {
        for &byte in piece.as_bytes() {
            self.bucket = (self.bucket ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.sign = (self.sign ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// The feature's bucket among `dim`.
    pub(crate) fn bucket(self, dim: usize) -> usize {
        (self.bucket % dim as u64) as usize
    }

    /// The feature's sign. A second, independent hash keeps colliding
    /// features from always reinforcing each other.
    pub(crate) fn sign(self) -> f32 {
        if self.sign & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Streams every feature of `module` to `emit` as its hash and weight:
/// imports, then kind paths, then uni-, bi- and trigrams.
///
/// Features are invariant under identifier renaming: names are read
/// through the module's canonical renaming.
pub(crate) fn for_each_feature(
    module: &Module,
    tokens: &mut TokenText,
    mut emit: impl FnMut(FeatureHash, f32),
) {
    imports(&module.body, &mut emit);
    let root = FeatureHash::SEED.feed("path:");
    for stmt in &module.body {
        stmt_paths(stmt, root, &mut emit);
    }
    ngrams(module, tokens, &mut emit);
}

fn imports(stmts: &[Stmt], emit: &mut impl FnMut(FeatureHash, f32)) {
    let imp = FeatureHash::SEED.feed("imp:");
    for stmt in stmts {
        match stmt {
            Stmt::Import { module, .. } => emit(imp.feed(module), W_IMPORT),
            Stmt::FromImport { module, name, .. } => {
                emit(imp.feed(module).feed(".").feed(name), W_IMPORT);
            }
            Stmt::FunctionDef { body, .. } | Stmt::For { body, .. } | Stmt::While { body, .. } => {
                imports(body, emit);
            }
            Stmt::If { body, orelse, .. } => {
                imports(body, emit);
                imports(orelse, emit);
            }
            Stmt::Try { body, handler } => {
                imports(body, emit);
                imports(handler, emit);
            }
            _ => {}
        }
    }
}

/// Emits `stmt`'s kind path, continuing `prefix`, then its child
/// statements' paths, then its expressions' paths.
fn stmt_paths(stmt: &Stmt, prefix: FeatureHash, emit: &mut impl FnMut(FeatureHash, f32)) {
    let path = prefix.feed("/").feed(stmt.kind());
    emit(path, W_PATH);
    let blocks: [&[Stmt]; 2] = match stmt {
        Stmt::FunctionDef { body, .. } | Stmt::For { body, .. } | Stmt::While { body, .. } => {
            [body, &[]]
        }
        Stmt::If { body, orelse, .. } => [body, orelse],
        Stmt::Try { body, handler } => [body, handler],
        _ => [&[], &[]],
    };
    for child in blocks.into_iter().flatten() {
        stmt_paths(child, path, emit);
    }
    // Expression kind paths, down to depth 3 (callee kinds matter:
    // Call/Attribute distinguishes `requests.post(..)` from `f(..)`).
    let exprs: [Option<&Expr>; 2] = match stmt {
        Stmt::Assign { target, value } => [Some(target), Some(value)],
        Stmt::Expr(e) | Stmt::Raise(e) | Stmt::Return(Some(e)) => [Some(e), None],
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => [Some(cond), None],
        Stmt::For { iter, .. } => [Some(iter), None],
        _ => [None, None],
    };
    for expr in exprs.into_iter().flatten() {
        expr_paths(expr, path, 0, emit);
    }
}

fn expr_paths(
    expr: &Expr,
    prefix: FeatureHash,
    depth: usize,
    emit: &mut impl FnMut(FeatureHash, f32),
) {
    if depth > 3 {
        return;
    }
    let path = prefix.feed("/").feed(expr.kind());
    emit(path, W_PATH);
    let depth = depth + 1;
    match expr {
        Expr::Call { callee, args } => {
            expr_paths(callee, path, depth, emit);
            for a in args {
                expr_paths(a, path, depth, emit);
            }
        }
        Expr::Attribute { value, attr } => {
            emit(FeatureHash::SEED.feed("attr:").feed(attr), W_ATTR);
            expr_paths(value, path, depth, emit);
        }
        Expr::Index { value, index } => {
            expr_paths(value, path, depth, emit);
            expr_paths(index, path, depth, emit);
        }
        Expr::Binary { lhs, rhs, .. } => {
            expr_paths(lhs, path, depth, emit);
            expr_paths(rhs, path, depth, emit);
        }
        Expr::Unary { operand, .. } => expr_paths(operand, path, depth, emit),
        Expr::List(items) => {
            for i in items {
                expr_paths(i, path, depth, emit);
            }
        }
        Expr::Dict(pairs) => {
            for (k, v) in pairs {
                expr_paths(k, path, depth, emit);
                expr_paths(v, path, depth, emit);
            }
        }
        _ => {}
    }
}

/// The canonical token stream of one module, written out once: tokens
/// joined by single spaces, so every n-gram is one contiguous slice
/// (`t2:` then `a b`). An [`EmbedBuffer`](crate::EmbedBuffer) keeps one,
/// so a warm buffer writes the stream without allocating.
#[derive(Debug, Default)]
pub(crate) struct TokenText {
    text: String,
    /// Each token's byte range in `text`.
    spans: Vec<(usize, usize)>,
}

impl TokenText {
    /// Appends a token made of `pieces`, after a separating space. An
    /// attribute is two pieces (`.` then `post`), so no token is built
    /// on its own.
    fn push(&mut self, pieces: &[&str]) {
        if !self.spans.is_empty() {
            self.text.push(' ');
        }
        let start = self.text.len();
        for piece in pieces {
            self.text.push_str(piece);
        }
        self.spans.push((start, self.text.len()));
    }
}

/// Emits every uni-, bi- and trigram of the token stream, each fed as
/// `tn:` then its slice of the text.
fn ngrams(module: &Module, tokens: &mut TokenText, emit: &mut impl FnMut(FeatureHash, f32)) {
    let names = RenameTable::of(module);
    tokens.text.clear();
    tokens.spans.clear();
    for stmt in &module.body {
        stmt_tokens(stmt, &names, tokens);
    }
    for (n, prefix) in [(1, "t1:"), (2, "t2:"), (3, "t3:")] {
        let start = FeatureHash::SEED.feed(prefix);
        for window in tokens.spans.windows(n) {
            let gram = &tokens.text[window[0].0..window[n - 1].1];
            emit(start.feed(gram), W_NGRAM);
        }
    }
}

/// Streams a statement's tokens with literals bucketed and names
/// canonical.
fn stmt_tokens(stmt: &Stmt, names: &RenameTable, out: &mut TokenText) {
    match stmt {
        Stmt::Import { module, .. } => {
            out.push(&["import"]);
            out.push(&[module]);
        }
        Stmt::FromImport { module, name, .. } => {
            out.push(&["from"]);
            out.push(&[module]);
            out.push(&["import"]);
            out.push(&[name]);
        }
        Stmt::Assign { target, value } => {
            expr_tokens(target, names, out);
            out.push(&["="]);
            expr_tokens(value, names, out);
        }
        Stmt::Expr(e) => expr_tokens(e, names, out),
        Stmt::FunctionDef { name, params, body } => {
            out.push(&["def"]);
            out.push(&[names.canonical(name)]);
            for p in params {
                out.push(&[names.canonical(p)]);
            }
            for s in body {
                stmt_tokens(s, names, out);
            }
            out.push(&["enddef"]);
        }
        Stmt::If { cond, body, orelse } => {
            out.push(&["if"]);
            expr_tokens(cond, names, out);
            for s in body {
                stmt_tokens(s, names, out);
            }
            if !orelse.is_empty() {
                out.push(&["else"]);
                for s in orelse {
                    stmt_tokens(s, names, out);
                }
            }
            out.push(&["endif"]);
        }
        Stmt::For { var, iter, body } => {
            out.push(&["for"]);
            out.push(&[names.canonical(var)]);
            expr_tokens(iter, names, out);
            for s in body {
                stmt_tokens(s, names, out);
            }
            out.push(&["endfor"]);
        }
        Stmt::While { cond, body } => {
            out.push(&["while"]);
            expr_tokens(cond, names, out);
            for s in body {
                stmt_tokens(s, names, out);
            }
            out.push(&["endwhile"]);
        }
        Stmt::Try { body, handler } => {
            out.push(&["try"]);
            for s in body {
                stmt_tokens(s, names, out);
            }
            out.push(&["except"]);
            for s in handler {
                stmt_tokens(s, names, out);
            }
            out.push(&["endtry"]);
        }
        Stmt::Return(v) => {
            out.push(&["return"]);
            if let Some(e) = v {
                expr_tokens(e, names, out);
            }
        }
        Stmt::Raise(e) => {
            out.push(&["raise"]);
            expr_tokens(e, names, out);
        }
        Stmt::Pass => out.push(&["pass"]),
    }
}

fn expr_tokens(expr: &Expr, names: &RenameTable, out: &mut TokenText) {
    match expr {
        Expr::Name(n) => out.push(&[names.canonical(n)]),
        // Literals are bucketed: the exact endpoint URL or port changes
        // between release attempts, the shape does not.
        Expr::Str(_) => out.push(&["STR"]),
        Expr::Int(_) => out.push(&["INT"]),
        Expr::Float(_) => out.push(&["FLOAT"]),
        Expr::Bool(_) => out.push(&["BOOL"]),
        Expr::NoneLit => out.push(&["NONE"]),
        Expr::Call { callee, args } => {
            expr_tokens(callee, names, out);
            out.push(&["("]);
            for a in args {
                expr_tokens(a, names, out);
            }
            out.push(&[")"]);
        }
        Expr::Attribute { value, attr } => {
            expr_tokens(value, names, out);
            out.push(&[".", attr]);
        }
        Expr::Index { value, index } => {
            expr_tokens(value, names, out);
            out.push(&["["]);
            expr_tokens(index, names, out);
            out.push(&["]"]);
        }
        Expr::Binary { op, lhs, rhs } => {
            expr_tokens(lhs, names, out);
            out.push(&[op.symbol()]);
            expr_tokens(rhs, names, out);
        }
        Expr::Unary { operand, .. } => {
            out.push(&["unary"]);
            expr_tokens(operand, names, out);
        }
        Expr::List(items) => {
            out.push(&["list"]);
            for i in items {
                expr_tokens(i, names, out);
            }
        }
        Expr::Dict(pairs) => {
            out.push(&["dict"]);
            for (k, v) in pairs {
                expr_tokens(k, names, out);
                expr_tokens(v, names, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The string feature bag the stream replaces, kept as its oracle:
    //! one `String` per feature over the canonicalized module, each
    //! hashed twice from scratch.

    use super::*;
    use crate::{EmbedBuffer, Embedder, SparseEmbedding};
    use minilang::canon::canonicalize;
    use minilang::gen::{generate, mutate, Behavior, Mutation};
    use minilang::parse;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One extracted feature: an opaque text key plus a weight.
    #[derive(Debug, Clone, PartialEq)]
    struct Feature {
        text: String,
        weight: f32,
    }

    impl Feature {
        fn new(text: String, weight: f32) -> Self {
            Feature { text, weight }
        }
    }

    /// The full feature bag for `module`, over its canonicalized copy.
    fn extract_features(module: &Module) -> Vec<Feature> {
        let canon = canonicalize(module);
        let mut features = Vec::new();
        collect_imports(&canon, &mut features);
        collect_kind_paths(&canon, &mut features);
        collect_token_ngrams(&canon, &mut features);
        features
    }

    fn collect_imports(module: &Module, out: &mut Vec<Feature>) {
        fn walk(stmts: &[Stmt], out: &mut Vec<Feature>) {
            for stmt in stmts {
                match stmt {
                    Stmt::Import { module, .. } => {
                        out.push(Feature::new(format!("imp:{module}"), W_IMPORT));
                    }
                    Stmt::FromImport { module, name, .. } => {
                        out.push(Feature::new(format!("imp:{module}.{name}"), W_IMPORT));
                    }
                    Stmt::FunctionDef { body, .. } => walk(body, out),
                    Stmt::If { body, orelse, .. } => {
                        walk(body, out);
                        walk(orelse, out);
                    }
                    Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, out),
                    Stmt::Try { body, handler } => {
                        walk(body, out);
                        walk(handler, out);
                    }
                    _ => {}
                }
            }
        }
        walk(&module.body, out);
    }

    fn collect_kind_paths(module: &Module, out: &mut Vec<Feature>) {
        fn stmt_paths(stmt: &Stmt, prefix: &str, out: &mut Vec<Feature>) {
            let path = format!("{prefix}/{}", stmt.kind());
            out.push(Feature::new(format!("path:{path}"), W_PATH));
            let children: Vec<&Vec<Stmt>> = match stmt {
                Stmt::FunctionDef { body, .. }
                | Stmt::For { body, .. }
                | Stmt::While { body, .. } => vec![body],
                Stmt::If { body, orelse, .. } => vec![body, orelse],
                Stmt::Try { body, handler } => vec![body, handler],
                _ => vec![],
            };
            for block in children {
                for child in block {
                    stmt_paths(child, &path, out);
                }
            }
            for e in stmt_exprs(stmt) {
                expr_paths(e, &path, 0, out);
            }
        }
        fn expr_paths(expr: &Expr, prefix: &str, depth: usize, out: &mut Vec<Feature>) {
            if depth > 3 {
                return;
            }
            let path = format!("{prefix}/{}", expr.kind());
            out.push(Feature::new(format!("path:{path}"), W_PATH));
            match expr {
                Expr::Call { callee, args } => {
                    expr_paths(callee, &path, depth + 1, out);
                    for a in args {
                        expr_paths(a, &path, depth + 1, out);
                    }
                }
                Expr::Attribute { value, attr } => {
                    out.push(Feature::new(format!("attr:{attr}"), W_ATTR));
                    expr_paths(value, &path, depth + 1, out);
                }
                Expr::Index { value, index } => {
                    expr_paths(value, &path, depth + 1, out);
                    expr_paths(index, &path, depth + 1, out);
                }
                Expr::Binary { lhs, rhs, .. } => {
                    expr_paths(lhs, &path, depth + 1, out);
                    expr_paths(rhs, &path, depth + 1, out);
                }
                Expr::Unary { operand, .. } => expr_paths(operand, &path, depth + 1, out),
                Expr::List(items) => {
                    for i in items {
                        expr_paths(i, &path, depth + 1, out);
                    }
                }
                Expr::Dict(pairs) => {
                    for (k, v) in pairs {
                        expr_paths(k, &path, depth + 1, out);
                        expr_paths(v, &path, depth + 1, out);
                    }
                }
                _ => {}
            }
        }
        fn stmt_exprs(stmt: &Stmt) -> Vec<&Expr> {
            match stmt {
                Stmt::Assign { target, value } => vec![target, value],
                Stmt::Expr(e) | Stmt::Raise(e) => vec![e],
                Stmt::Return(Some(e)) => vec![e],
                Stmt::If { cond, .. } | Stmt::While { cond, .. } => vec![cond],
                Stmt::For { iter, .. } => vec![iter],
                _ => vec![],
            }
        }
        for stmt in &module.body {
            stmt_paths(stmt, "", out);
        }
    }

    fn collect_token_ngrams(module: &Module, out: &mut Vec<Feature>) {
        let tokens = token_stream(module);
        for window in tokens.windows(1) {
            out.push(Feature::new(format!("t1:{}", window.join(" ")), W_NGRAM));
        }
        for window in tokens.windows(2) {
            out.push(Feature::new(format!("t2:{}", window.join(" ")), W_NGRAM));
        }
        for window in tokens.windows(3) {
            out.push(Feature::new(format!("t3:{}", window.join(" ")), W_NGRAM));
        }
    }

    /// Flattens a module to an abstract token stream with literals
    /// bucketed.
    fn token_stream(module: &Module) -> Vec<String> {
        let mut tokens = Vec::new();
        for stmt in &module.body {
            stmt_tokens(stmt, &mut tokens);
        }
        tokens
    }

    fn stmt_tokens(stmt: &Stmt, out: &mut Vec<String>) {
        match stmt {
            Stmt::Import { module, .. } => {
                out.push("import".into());
                out.push(module.clone());
            }
            Stmt::FromImport { module, name, .. } => {
                out.push("from".into());
                out.push(module.clone());
                out.push("import".into());
                out.push(name.clone());
            }
            Stmt::Assign { target, value } => {
                expr_tokens(target, out);
                out.push("=".into());
                expr_tokens(value, out);
            }
            Stmt::Expr(e) => expr_tokens(e, out),
            Stmt::FunctionDef { name, params, body } => {
                out.push("def".into());
                out.push(name.clone());
                out.extend(params.iter().cloned());
                for s in body {
                    stmt_tokens(s, out);
                }
                out.push("enddef".into());
            }
            Stmt::If { cond, body, orelse } => {
                out.push("if".into());
                expr_tokens(cond, out);
                for s in body {
                    stmt_tokens(s, out);
                }
                if !orelse.is_empty() {
                    out.push("else".into());
                    for s in orelse {
                        stmt_tokens(s, out);
                    }
                }
                out.push("endif".into());
            }
            Stmt::For { var, iter, body } => {
                out.push("for".into());
                out.push(var.clone());
                expr_tokens(iter, out);
                for s in body {
                    stmt_tokens(s, out);
                }
                out.push("endfor".into());
            }
            Stmt::While { cond, body } => {
                out.push("while".into());
                expr_tokens(cond, out);
                for s in body {
                    stmt_tokens(s, out);
                }
                out.push("endwhile".into());
            }
            Stmt::Try { body, handler } => {
                out.push("try".into());
                for s in body {
                    stmt_tokens(s, out);
                }
                out.push("except".into());
                for s in handler {
                    stmt_tokens(s, out);
                }
                out.push("endtry".into());
            }
            Stmt::Return(v) => {
                out.push("return".into());
                if let Some(e) = v {
                    expr_tokens(e, out);
                }
            }
            Stmt::Raise(e) => {
                out.push("raise".into());
                expr_tokens(e, out);
            }
            Stmt::Pass => out.push("pass".into()),
        }
    }

    fn expr_tokens(expr: &Expr, out: &mut Vec<String>) {
        match expr {
            Expr::Name(n) => out.push(n.clone()),
            Expr::Str(_) => out.push("STR".into()),
            Expr::Int(_) => out.push("INT".into()),
            Expr::Float(_) => out.push("FLOAT".into()),
            Expr::Bool(_) => out.push("BOOL".into()),
            Expr::NoneLit => out.push("NONE".into()),
            Expr::Call { callee, args } => {
                expr_tokens(callee, out);
                out.push("(".into());
                for a in args {
                    expr_tokens(a, out);
                }
                out.push(")".into());
            }
            Expr::Attribute { value, attr } => {
                expr_tokens(value, out);
                out.push(format!(".{attr}"));
            }
            Expr::Index { value, index } => {
                expr_tokens(value, out);
                out.push("[".into());
                expr_tokens(index, out);
                out.push("]".into());
            }
            Expr::Binary { op, lhs, rhs } => {
                expr_tokens(lhs, out);
                out.push(op.symbol().into());
                expr_tokens(rhs, out);
            }
            Expr::Unary { operand, .. } => {
                out.push("unary".into());
                expr_tokens(operand, out);
            }
            Expr::List(items) => {
                out.push("list".into());
                for i in items {
                    expr_tokens(i, out);
                }
            }
            Expr::Dict(pairs) => {
                out.push("dict".into());
                for (k, v) in pairs {
                    expr_tokens(k, out);
                    expr_tokens(v, out);
                }
            }
        }
    }

    fn fnv1a_seeded(bytes: &[u8], seed: u64) -> u64 {
        let mut hash = seed;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
        hash
    }

    /// The string bag's `(bucket hash, sign hash, weight)` per feature.
    fn oracle_hashes(module: &Module) -> Vec<(u64, u64, f32)> {
        extract_features(module)
            .iter()
            .map(|f| {
                let bytes = f.text.as_bytes();
                (
                    fnv1a_seeded(bytes, 0xcbf29ce484222325),
                    fnv1a_seeded(bytes, 0x9e3779b97f4a7c15),
                    f.weight,
                )
            })
            .collect()
    }

    fn streamed_hashes(module: &Module) -> Vec<(u64, u64, f32)> {
        let mut out = Vec::new();
        let mut tokens = TokenText::default();
        for_each_feature(module, &mut tokens, |h, weight| {
            out.push((h.bucket, h.sign, weight));
        });
        out
    }

    /// `embed_sparse` as the string bag computed it: hash each feature
    /// twice, accumulate, normalize.
    fn oracle_sparse(module: &Module, dim: usize) -> SparseEmbedding {
        let mut scratch = vec![0.0f32; dim];
        let mut touched = Vec::new();
        for f in extract_features(module) {
            let bytes = f.text.as_bytes();
            let bucket = (fnv1a_seeded(bytes, 0xcbf29ce484222325) % dim as u64) as usize;
            let sign = if fnv1a_seeded(bytes, 0x9e3779b97f4a7c15) & 1 == 0 {
                1.0
            } else {
                -1.0
            };
            scratch[bucket] += sign * f.weight;
            touched.push(bucket as u32);
        }
        touched.sort_unstable();
        touched.dedup();
        let norm = touched
            .iter()
            .map(|&b| scratch[b as usize] * scratch[b as usize])
            .sum::<f32>()
            .sqrt()
            + 0.0;
        let values: Vec<f32> = touched
            .iter()
            .map(|&b| {
                let v = scratch[b as usize];
                if norm == 0.0 {
                    v
                } else {
                    v / norm
                }
            })
            .collect();
        SparseEmbedding::from_pairs(dim, touched, values)
    }

    fn assert_bitwise_eq(a: &SparseEmbedding, b: &SparseEmbedding) {
        assert_eq!(a.dim(), b.dim());
        assert_eq!(a.indices(), b.indices());
        let bits = |e: &SparseEmbedding| e.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.norm().to_bits(), b.norm().to_bits());
    }

    /// Sources a streaming hasher can get wrong: free names spelled like
    /// canonical ones, imports rebound by later definitions, long
    /// postfix chains, expressions past the depth-3 path cut, nothing.
    const TRICKY: &[&str] = &[
        "x = v0\nv0 = x\n",
        "f0(1)\ny = f0\n",
        "m_os = 1\nimport os\nos.getenv(m_os)\n",
        "import a.b as c\nc = 1\nc.d(c)\n",
        "import a.b\na = 2\nsend(a.b)\n",
        "from m import n\n\ndef n():\n    return n\nn()\n",
        "def n():\n    pass\nfrom m import n\nn()\n",
        "x = f().x.y\nf().x.y = x\n",
        "x = a(b(c(d(e(f(g[h[-(1 + 2)]]))))))\n",
        "x = [[[[[[1]]]]]]\ny = {'k': {'k': {'k': {'k': 2}}}}\n",
        "for i in range(3):\n    while not i:\n        try:\n            raise E(i)\n        except:\n            pass\n",
        "if a:\n    pass\nelif b:\n    return\nelse:\n    x = 'é → ü' + 1.5 * -2 ** 3 % 4\n",
        "",
        "# only a comment\n",
    ];

    #[test]
    fn the_stream_matches_the_string_bag_feature_for_feature() {
        for src in TRICKY {
            let module = parse(src).unwrap();
            assert_eq!(streamed_hashes(&module), oracle_hashes(&module), "{src:?}");
        }
    }

    #[test]
    fn tricky_sources_embed_like_the_string_bag() {
        let mut buf = EmbedBuffer::new();
        for src in TRICKY {
            let module = parse(src).unwrap();
            for dim in [1, 2, 61, 1024, 3072] {
                let streamed = Embedder::new(dim).embed_sparse_into(&module, &mut buf);
                assert_bitwise_eq(&streamed, &oracle_sparse(&module, dim));
            }
        }
    }

    #[test]
    fn empty_module_has_no_features() {
        assert!(streamed_hashes(&parse("").unwrap()).is_empty());
        assert!(extract_features(&parse("").unwrap()).is_empty());
    }

    fn arbitrary_module() -> impl Strategy<Value = Module> {
        (
            any::<u64>(),
            0usize..Behavior::ALL.len(),
            proptest::collection::vec(0usize..Mutation::ALL.len(), 0..6),
        )
            .prop_map(|(seed, behavior, mutations)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut module = generate(Behavior::ALL[behavior], &mut rng);
                for m in mutations {
                    module = mutate(&module, Mutation::ALL[m], &mut rng);
                }
                module
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streamed_embedding_equals_the_string_bag(
            module in arbitrary_module(),
            dim in 1usize..4096,
        ) {
            prop_assert_eq!(streamed_hashes(&module), oracle_hashes(&module));
            let streamed = Embedder::new(dim).embed_sparse(&module);
            assert_bitwise_eq(&streamed, &oracle_sparse(&module, dim));
        }
    }

    // The string bag's own shape: what each family extracts.

    #[test]
    fn imports_are_extracted_with_high_weight() {
        let m = parse("import requests\nfrom os import getenv\n").unwrap();
        let feats = extract_features(&m);
        let imports: Vec<_> = feats
            .iter()
            .filter(|f| f.text.starts_with("imp:"))
            .collect();
        assert_eq!(imports.len(), 2);
        assert!(imports.iter().all(|f| f.weight == W_IMPORT));
        assert!(imports.iter().any(|f| f.text == "imp:requests"));
        assert!(imports.iter().any(|f| f.text == "imp:os.getenv"));
    }

    #[test]
    fn literals_are_bucketed() {
        let a = parse("x = send('http://a.xyz', 42)\n").unwrap();
        let b = parse("x = send('http://b.top', 99)\n").unwrap();
        assert_eq!(token_stream(&a), token_stream(&b));
        assert_eq!(streamed_hashes(&a), streamed_hashes(&b));
    }

    #[test]
    fn kind_paths_capture_nesting() {
        let m = parse("def f():\n    while x:\n        y = 1\n").unwrap();
        let feats = extract_features(&m);
        assert!(
            feats
                .iter()
                .any(|f| f.text == "path:/FunctionDef/While/Assign"),
            "missing nested path feature"
        );
    }

    #[test]
    fn attribute_names_become_features() {
        let m = parse("requests.post(u)\n").unwrap();
        let feats = extract_features(&m);
        assert!(feats.iter().any(|f| f.text == "attr:post"));
    }

    #[test]
    fn ngram_counts_grow_with_program() {
        let small = streamed_hashes(&parse("x = 1\n").unwrap());
        let large = streamed_hashes(&parse("x = 1\ny = 2\nz = x + y\nw = z * 2\n").unwrap());
        assert!(large.len() > small.len());
    }

    #[test]
    fn token_stream_marks_block_boundaries() {
        let m = parse("if a:\n    pass\nelse:\n    pass\n").unwrap();
        let toks = token_stream(&m);
        assert!(toks.contains(&"else".to_string()));
        assert!(toks.contains(&"endif".to_string()));
    }
}
