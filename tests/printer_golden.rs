//! Golden identity of the canonical printer, `minilang::printer`.
//!
//! The digest was recorded with the string-building printer, which made
//! a new `String` for every expression node, and re-recorded when unary
//! minus took precedence 6, which changed four hand-written texts, each
//! holding a unary minus, and no world or generated text. Package
//! signatures hash this text and release diffs compare it (paper
//! §III-C), so any change to the printer must reproduce it byte for
//! byte.
//!
//! The digest covers `print_module` of three sets, each text fed as its
//! length (`u64`, little-endian) and then its bytes:
//!
//! * every package's `source_text` in the worlds of
//!   `WorldConfig::small(77)` and `WorldConfig::small(78)`;
//! * `generate` of every behaviour and `generate_benign`, over eight
//!   seeds, each printed as generated and after every `Mutation`;
//! * `print_module(&parse(s))` of a hand-written list that reaches
//!   every `Stmt` and `Expr` variant and every printer branch: the
//!   constructs the generator never emits (floats, unary operators,
//!   dicts), parentheses on each side of every binary operator, string
//!   escapes and non-ASCII text.

use malgraph::minilang::ast::{Expr, Stmt};
use malgraph::minilang::gen::{generate, generate_benign, mutate, Behavior, Mutation};
use malgraph::minilang::{parse, printer::print_module, Module};
use malgraph::oss_types::hash::Sha256Hasher;
use malgraph::registry_sim::{World, WorldConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

const PRINTER_SHA256: &str = "73fa4bb48234e487267a4a8b6423c2963683854a78c1731db4b931e24f194fcf";
const TEXTS: usize = 2_856;

const WORLD_SEEDS: [u64; 2] = [77, 78];
const GEN_SEEDS: u64 = 8;

/// Every binary operator's surface syntax.
const BINARY_OPS: [&str; 15] = [
    "or", "and", "==", "!=", "<", "<=", ">", ">=", "in", "+", "-", "*", "/", "%", "**",
];

/// Statements and expressions the generator never combines this way.
const HAND: &[&str] = &[
    "",
    "pass\n",
    "# a comment\n\nx = 1  # trailing\n\n",
    "import os\nimport a.b.c as abc\nfrom x.y import z\nfrom x.y import z as w\n",
    "x = 1\ny = True\nz = False\nn = None\nbig = 9223372036854775807\n",
    "f = 2.5\ng = 0.1\nh = 100.0\ni = 12345678901234567890.5\nj = 2.0\n",
    "a = -1\nb = -2.5\nc = --x\nd = not not x\ne = -(not x)\nf = not -x\n",
    "a = -x ** 2\nb = x ** -2\nc = (-x) ** 2\nd = -(x ** 2)\n",
    "a = (-x).y\nb = (-x)(y)\nc = (-x)[0]\nd = -x.y\ne = -x(y)\nf = -x[0]\n",
    "a = (not x).y\nb = (not x)(y)\nc = (not x)[0]\nd = (a + b).c\ne = (a or b)[0]\nf = (a + b)(c)\n",
    "v = items[0].field('k')[1]\nw = a.b.c.d(e)(f)[g][h].i\nx.y = 1\nx[0] = 2\nx[i].y[j] = 3\n",
    "e = []\nf = {}\ng = [x, [y, [z]], {}]\nh = {'a': 1, 'b': [2, 3], k: {1: {2: 3}}}\n",
    "d = {a + b: not c, (x or y): -z, 'k': [1, 2.5]}\nl = [a or b, not c, -d, a_ + b]\n",
    "go()\ngo(a)\ngo(a, b, c)\ngo(go(go()))\nm.f(a)(b, c)\n",
    "s = 'quote \\' back \\\\ nl \\n tab \\t dq \" end'\n",
    "t = \"it's \\\"dq\\\" \\\\n\"\nu = 'é → 日本語 🦀'\nv = ''\nw = '\\n\\n\\t\\t'\n",
    "x = a in b\ny = not a in b\nz = a == b == c\nw = (a == b) == c\nv = a == (b == c)\n",
    "def f():\n    pass\n",
    "def f(a):\n    return\n\ndef g(a, b, c):\n    return a\nx = 1\n\ndef h():\n    raise Error('x')\ny = 2\nz = 3\n",
    "def outer(a):\n    def inner(b):\n        return b\n    x = inner(a)\n    return x\n",
    "if a:\n    pass\n",
    "if a:\n    x = 1\nelse:\n    x = 2\n",
    "if a:\n    if b:\n        return\n    else:\n        pass\nelif c:\n    raise Error('c')\nelif d:\n    x = 1\nelse:\n    if e:\n        y = 2\n",
    "try:\n    go()\nexcept:\n    try:\n        stop()\n    except:\n        pass\n",
    "for i in seq:\n    while not done:\n        step(i)\n    for j in range(i):\n        if j:\n            break_(j)\n",
    "while a < b and (c or d):\n    a = a + 1\n",
    "def run(host, port):\n    try:\n        s = socket.socket()\n        s.connect([host, port])\n        while True:\n            data = s.recv(1024)\n            if not data:\n                return None\n            out = subprocess.run(data, {'shell': True})\n            s.send(out.stdout)\n    except:\n        pass\n    return -1\n",
];

/// Each binary operator with every operator on each side, parenthesised
/// in the source: `(a i b) o (c i d)`. The printer keeps a pair of
/// parentheses only where the inner operator binds looser than its side
/// allows, so this reaches both outcomes on both sides of every operator,
/// `**`'s right associativity included. Then each operator under and
/// over the two unary operators.
fn operator_matrix() -> Vec<String> {
    let mut out = Vec::new();
    for outer in BINARY_OPS {
        for inner in BINARY_OPS {
            out.push(format!("x = (a {inner} b) {outer} (c {inner} d)\n"));
        }
        out.push(format!("x = a {outer} b {outer} c\n"));
        out.push(format!("x = a {outer} (b {outer} c)\n"));
        out.push(format!("x = (-a) {outer} (-b)\n"));
        out.push(format!("x = -(a {outer} b)\n"));
        out.push(format!("x = (not a) {outer} (not b)\n"));
        out.push(format!("x = not (a {outer} b)\n"));
    }
    out
}

/// Kind labels of every statement and expression in `module`.
fn kinds(module: &Module) -> BTreeSet<&'static str> {
    fn block(body: &[Stmt], out: &mut BTreeSet<&'static str>) {
        body.iter().for_each(|s| stmt(s, out));
    }
    fn stmt(s: &Stmt, out: &mut BTreeSet<&'static str>) {
        out.insert(s.kind());
        match s {
            Stmt::Assign { target, value } => {
                expr(target, out);
                expr(value, out);
            }
            Stmt::Expr(e) | Stmt::Raise(e) | Stmt::Return(Some(e)) => expr(e, out),
            Stmt::FunctionDef { body, .. } => block(body, out),
            Stmt::If { cond, body, orelse } => {
                expr(cond, out);
                block(body, out);
                block(orelse, out);
            }
            Stmt::For { iter, body, .. } => {
                expr(iter, out);
                block(body, out);
            }
            Stmt::While { cond, body } => {
                expr(cond, out);
                block(body, out);
            }
            Stmt::Try { body, handler } => {
                block(body, out);
                block(handler, out);
            }
            Stmt::Import { .. } | Stmt::FromImport { .. } | Stmt::Return(None) | Stmt::Pass => {}
        }
    }
    fn expr(e: &Expr, out: &mut BTreeSet<&'static str>) {
        out.insert(e.kind());
        match e {
            Expr::Call { callee, args } => {
                expr(callee, out);
                args.iter().for_each(|a| expr(a, out));
            }
            Expr::Attribute { value, .. } | Expr::Unary { operand: value, .. } => expr(value, out),
            Expr::Index { value, index } => {
                expr(value, out);
                expr(index, out);
            }
            Expr::Binary { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            Expr::List(items) => items.iter().for_each(|i| expr(i, out)),
            Expr::Dict(pairs) => pairs.iter().for_each(|(k, v)| {
                expr(k, out);
                expr(v, out);
            }),
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    block(&module.body, &mut out);
    out
}

#[test]
fn printed_modules_match_the_recorded_digest() {
    let mut hasher = Sha256Hasher::new();
    let mut texts = 0usize;
    let mut add = |text: &str| {
        hasher.update(&(text.len() as u64).to_le_bytes());
        hasher.update(text.as_bytes());
        texts += 1;
    };

    for seed in WORLD_SEEDS {
        for pkg in &World::generate(WorldConfig::small(seed)).packages {
            add(&pkg.source_text);
        }
    }

    for seed in 0..GEN_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut modules: Vec<Module> = Behavior::ALL
            .iter()
            .map(|&behavior| generate(behavior, &mut rng))
            .collect();
        modules.push(generate_benign(&mut rng));
        for module in &modules {
            add(&print_module(module));
            for mutation in Mutation::ALL {
                add(&print_module(&mutate(module, mutation, &mut rng)));
            }
        }
    }

    let mut seen = BTreeSet::new();
    let hand = HAND.iter().map(|s| s.to_string()).chain(operator_matrix());
    for src in hand {
        let module = parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        seen.extend(kinds(&module));
        add(&print_module(&module));
    }
    let every_kind: BTreeSet<&str> = [
        "Import",
        "FromImport",
        "Assign",
        "ExprStmt",
        "FunctionDef",
        "If",
        "For",
        "While",
        "Try",
        "Return",
        "Raise",
        "Pass",
        "Name",
        "Str",
        "Int",
        "Float",
        "Bool",
        "None",
        "Call",
        "Attribute",
        "Index",
        "Binary",
        "Unary",
        "List",
        "Dict",
    ]
    .into_iter()
    .collect();
    assert_eq!(seen, every_kind, "the hand-written list misses a variant");

    assert_eq!(texts, TEXTS);
    assert_eq!(hasher.finalize().to_string(), PRINTER_SHA256);
}
