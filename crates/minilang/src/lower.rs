//! Lowering: a parsed [`Module`] turned, once per source, into the
//! compact [`Program`] the sandbox executes and the static rules read.
//!
//! The lowered form differs from the AST in four ways:
//!
//! * nodes live in flat arenas addressed by `u32` ids, not boxes;
//! * every name is resolved to a slot. At top level that is a global
//!   slot; inside a function a name the body binds anywhere gets a local
//!   slot that falls back to the global one while unset, and any other
//!   name reads the global slot. That is the interpreter's lookup order
//!   (local, then global, then the memoised undefined-name handle);
//! * identifiers, attribute names and static dotted paths (`os.getenv`)
//!   are interned into one name table, which the interpreter extends per
//!   run for the paths only execution reveals (`sock.recv` on a socket);
//! * literal values are built once, here.
//!
//! The AST itself is untouched: the printer, canonicaliser, embedder and
//! diff keep consuming it.

use crate::ast::{BinOp, Expr, Module, Stmt, UnaryOp};
use crate::interp::{ApiId, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// Name id of `builtin`, the receiver of string/list/dict methods.
pub(crate) const BUILTIN: u32 = 0;
/// Name id of `__getitem__`, recorded when code indexes a module.
pub(crate) const GETITEM: u32 = 1;
/// Name id of `__call__`, recorded when code calls a bare module handle.
pub(crate) const CALL: u32 = 2;
const FIXED_NAMES: [&str; 3] = ["builtin", "__getitem__", "__call__"];

/// A range of ids in [`Program::lists`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    start: u32,
    pub(crate) len: u32,
}

impl Span {
    pub(crate) fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// Where a binding goes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Target {
    Global(u32),
    Local(u32),
}

/// A lowered expression; evaluating any variant costs one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LExpr {
    Global(u32),
    Local {
        slot: u32,
        global: u32,
    },
    /// A literal, built once at lowering.
    Const(u32),
    List(Span),
    /// Keys and values interleaved.
    Dict(Span),
    /// `site` indexes the run's per-site join cache.
    Attr {
        base: u32,
        attr: u32,
        site: u32,
    },
    Index {
        base: u32,
        index: u32,
    },
    Binary {
        op: BinOp,
        lhs: u32,
        rhs: u32,
    },
    Unary {
        op: UnaryOp,
        operand: u32,
    },
    Call {
        callee: u32,
        args: Span,
    },
}

/// A lowered statement. Expression and statement fields are ids into
/// [`Program::exprs`] and, through spans, [`Program::lists`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum LStmt {
    /// `import` / `from … import`: binds a constant handle.
    Bind {
        target: Target,
        value: u32,
    },
    Assign {
        target: Target,
        value: u32,
    },
    /// `base.attr = value`; `attr` names `attr=`.
    AssignAttr {
        base: u32,
        attr: u32,
        value: u32,
    },
    AssignIndex {
        base: u32,
        value: u32,
    },
    /// An assignment to a target the parser never produces.
    AssignInvalid {
        value: u32,
    },
    Expr(u32),
    Def {
        target: Target,
        func: u32,
    },
    If {
        cond: u32,
        body: Span,
        orelse: Span,
    },
    For {
        target: Target,
        iter: u32,
        body: Span,
    },
    While {
        cond: u32,
        body: Span,
    },
    Try {
        body: Span,
        handler: Span,
    },
    Return(Option<u32>),
    Raise(u32),
    Pass,
}

/// A lowered `def`.
#[derive(Debug)]
pub(crate) struct Function {
    /// Local slot of each parameter, in order.
    pub(crate) params: Span,
    /// Local slots a call needs.
    pub(crate) locals: u32,
    pub(crate) body: Span,
    /// Evaluator frames the body can nest, which a call charges to the
    /// depth budget.
    pub(crate) height: u32,
}

/// The interned names of one program: identifiers, attribute names and
/// dotted paths, each stored once.
#[derive(Debug, Default)]
pub(crate) struct NameTable {
    pub(crate) strs: Vec<Rc<str>>,
    pub(crate) ids: HashMap<Rc<str>, u32>,
}

impl NameTable {
    pub(crate) fn get(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.get(s) {
            return id;
        }
        let id = self.strs.len() as u32;
        let s: Rc<str> = Rc::from(s);
        self.strs.push(Rc::clone(&s));
        self.ids.insert(s, id);
        id
    }
}

/// Syntactic facts the static rules read, gathered while lowering.
#[derive(Debug, Default)]
pub struct StaticFacts {
    /// Root package of every `import` / `from … import`.
    pub imports: Vec<Rc<str>>,
    /// Every distinct dotted path rooted at a name that appears as an
    /// attribute expression or a callee (`os.getenv`, `eval`).
    pub paths: Vec<Rc<str>>,
    /// Every distinct string literal.
    pub strings: Vec<Rc<str>>,
    /// A top-level `try:` whose body makes a bare call and whose handler
    /// is only `pass` — the silent install hook.
    pub silent_hook: bool,
    /// A call to a bare `eval` or `exec`.
    pub calls_eval: bool,
    /// A literal `while True:`.
    pub unbounded_loop: bool,
}

/// A module lowered for the sandbox and the static rules.
///
/// # Examples
///
/// ```
/// use minilang::{interp, lower::Program, parse};
///
/// let program = Program::lower(&parse("import os\nk = os.getenv('HOME')\n")?);
/// assert_eq!(&*program.facts().imports[0], "os");
/// let trace = interp::execute(&program, &interp::InterpConfig::default());
/// assert!(trace.touched("os.getenv"));
/// # Ok::<(), minilang::ParseErr>(())
/// ```
#[derive(Debug)]
pub struct Program {
    pub(crate) exprs: Vec<LExpr>,
    pub(crate) stmts: Vec<LStmt>,
    pub(crate) lists: Vec<u32>,
    pub(crate) consts: Vec<Value>,
    pub(crate) functions: Vec<Function>,
    /// The name of each global slot, for the undefined-name handle.
    pub(crate) globals: Vec<u32>,
    pub(crate) names: Rc<NameTable>,
    /// `(base, attr)` → `base.attr` for every static dotted path.
    pub(crate) joins: HashMap<(u32, u32), u32>,
    pub(crate) body: Span,
    /// Attribute expressions, each with a join cache slot per run.
    pub(crate) attr_sites: u32,
    facts: StaticFacts,
}

impl Program {
    /// Lowers `module`.
    pub fn lower(module: &Module) -> Program {
        let nodes = module.node_count();
        let mut l = Lowerer {
            exprs: Vec::with_capacity(nodes),
            stmts: Vec::with_capacity(nodes / 2),
            lists: Vec::with_capacity(nodes),
            consts: Vec::new(),
            functions: Vec::new(),
            globals: Vec::new(),
            global_slots: HashMap::new(),
            names: NameTable::default(),
            joins: HashMap::new(),
            strings: HashMap::new(),
            facts: StaticFacts::default(),
            imports: Vec::new(),
            paths: Vec::new(),
            scope: None,
            pending: Vec::new(),
            attr_sites: 0,
            depth: 0,
            height: 0,
            buf: String::new(),
        };
        for name in FIXED_NAMES {
            l.names.intern(name);
        }
        for stmt in &module.body {
            if let Stmt::Try { body, handler } = stmt {
                let calls = body
                    .iter()
                    .any(|s| matches!(s, Stmt::Expr(Expr::Call { .. })));
                if calls && handler.iter().all(|s| matches!(s, Stmt::Pass)) {
                    l.facts.silent_hook = true;
                }
            }
        }
        let body = l.block(&module.body);
        let distinct = |mut ids: Vec<u32>| -> Vec<Rc<str>> {
            ids.sort_unstable();
            ids.dedup();
            ids.iter()
                .map(|&id| Rc::clone(&l.names.strs[id as usize]))
                .collect()
        };
        let mut facts = l.facts;
        facts.imports = distinct(l.imports);
        facts.paths = distinct(l.paths);
        Program {
            exprs: l.exprs,
            stmts: l.stmts,
            lists: l.lists,
            consts: l.consts,
            functions: l.functions,
            globals: l.globals,
            names: Rc::new(l.names),
            joins: l.joins,
            body,
            attr_sites: l.attr_sites,
            facts,
        }
    }

    /// The facts the static rules read.
    pub fn facts(&self) -> &StaticFacts {
        &self.facts
    }
}

struct Lowerer {
    exprs: Vec<LExpr>,
    stmts: Vec<LStmt>,
    lists: Vec<u32>,
    consts: Vec<Value>,
    functions: Vec<Function>,
    globals: Vec<u32>,
    global_slots: HashMap<u32, u32>,
    names: NameTable,
    joins: HashMap<(u32, u32), u32>,
    /// String literal → constant id.
    strings: HashMap<Rc<str>, u32>,
    facts: StaticFacts,
    /// Root packages imported and static dotted paths seen so far, as
    /// name ids, repeats included.
    imports: Vec<u32>,
    paths: Vec<u32>,
    /// Name id → local slot in the function being lowered; `None` at
    /// top level.
    scope: Option<HashMap<u32, u32>>,
    /// Child ids of the nodes being lowered, awaiting their span.
    pending: Vec<u32>,
    attr_sites: u32,
    /// Evaluator nesting at the node being lowered, and its maximum in
    /// the current function.
    depth: u32,
    height: u32,
    buf: String,
}

impl Lowerer {
    /// Moves the child ids pending since `mark` into a span.
    fn span_from(&mut self, mark: usize) -> Span {
        let start = self.lists.len() as u32;
        self.lists.extend_from_slice(&self.pending[mark..]);
        let len = (self.pending.len() - mark) as u32;
        self.pending.truncate(mark);
        Span { start, len }
    }

    fn enter(&mut self) {
        self.depth += 1;
        self.height = self.height.max(self.depth);
    }

    fn global(&mut self, name: &str) -> u32 {
        let sym = self.names.intern(name);
        let next = self.globals.len() as u32;
        let slot = *self.global_slots.entry(sym).or_insert(next);
        if slot == next {
            self.globals.push(sym);
        }
        slot
    }

    fn target(&mut self, name: &str) -> Target {
        let sym = self.names.intern(name);
        match &self.scope {
            Some(slots) => Target::Local(slots[&sym]),
            None => Target::Global(self.global(name)),
        }
    }

    fn constant(&mut self, value: Value) -> u32 {
        self.consts.push(value);
        self.consts.len() as u32 - 1
    }

    fn string(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.strings.get(s) {
            return id;
        }
        let s: Rc<str> = Rc::from(s);
        self.facts.strings.push(Rc::clone(&s));
        let id = self.constant(Value::Str(Rc::clone(&s)));
        self.strings.insert(s, id);
        id
    }

    /// Interns `base.attr` and records the join.
    fn join(&mut self, base: u32, attr: u32) -> u32 {
        if let Some(&path) = self.joins.get(&(base, attr)) {
            return path;
        }
        self.buf.clear();
        self.buf.push_str(&self.names.strs[base as usize]);
        self.buf.push('.');
        self.buf.push_str(&self.names.strs[attr as usize]);
        let path = self.names.intern(&self.buf);
        self.joins.insert((base, attr), path);
        path
    }

    fn block(&mut self, stmts: &[Stmt]) -> Span {
        let mark = self.pending.len();
        for stmt in stmts {
            let id = self.stmt(stmt);
            self.pending.push(id);
        }
        self.span_from(mark)
    }

    fn stmt(&mut self, stmt: &Stmt) -> u32 {
        self.enter();
        let lowered = match stmt {
            Stmt::Import { module, alias } => {
                self.import_root(module);
                let local = alias
                    .as_deref()
                    .unwrap_or_else(|| module.split('.').next().unwrap_or(module));
                let path = self.names.intern(module);
                let value = self.constant(Value::Module(ApiId(path)));
                LStmt::Bind {
                    target: self.target(local),
                    value,
                }
            }
            Stmt::FromImport {
                module,
                name,
                alias,
            } => {
                self.import_root(module);
                self.buf.clear();
                self.buf.push_str(module);
                self.buf.push('.');
                self.buf.push_str(name);
                let path = self.names.intern(&self.buf);
                let value = self.constant(Value::ExternalFn(ApiId(path)));
                LStmt::Bind {
                    target: self.target(alias.as_deref().unwrap_or(name)),
                    value,
                }
            }
            Stmt::Assign { target, value } => {
                let value = self.expr(value).0;
                match target {
                    Expr::Name(name) => LStmt::Assign {
                        target: self.target(name),
                        value,
                    },
                    Expr::Attribute { value: base, attr } => {
                        // The target's own path is a static fact even
                        // though only `base` is evaluated.
                        let (base, path) = self.expr(base);
                        let name = self.names.intern(attr);
                        if let Some(path) = path {
                            let joined = self.join(path, name);
                            self.paths.push(joined);
                        }
                        self.buf.clear();
                        self.buf.push_str(attr);
                        self.buf.push('=');
                        let attr = self.names.intern(&self.buf);
                        LStmt::AssignAttr { base, attr, value }
                    }
                    Expr::Index { value: base, index } => {
                        let base = self.expr(base).0;
                        // Never evaluated, but its literals and paths
                        // are static facts.
                        self.expr(index);
                        LStmt::AssignIndex { base, value }
                    }
                    other => {
                        self.expr(other);
                        LStmt::AssignInvalid { value }
                    }
                }
            }
            Stmt::Expr(e) => LStmt::Expr(self.expr(e).0),
            Stmt::FunctionDef { name, params, body } => {
                let target = self.target(name);
                let func = self.function(params, body);
                LStmt::Def { target, func }
            }
            Stmt::If { cond, body, orelse } => LStmt::If {
                cond: self.expr(cond).0,
                body: self.block(body),
                orelse: self.block(orelse),
            },
            Stmt::For { var, iter, body } => LStmt::For {
                target: self.target(var),
                iter: self.expr(iter).0,
                body: self.block(body),
            },
            Stmt::While { cond, body } => {
                if matches!(cond, Expr::Bool(true)) {
                    self.facts.unbounded_loop = true;
                }
                LStmt::While {
                    cond: self.expr(cond).0,
                    body: self.block(body),
                }
            }
            Stmt::Try { body, handler } => LStmt::Try {
                body: self.block(body),
                handler: self.block(handler),
            },
            Stmt::Return(value) => LStmt::Return(value.as_ref().map(|e| self.expr(e).0)),
            Stmt::Raise(e) => LStmt::Raise(self.expr(e).0),
            Stmt::Pass => LStmt::Pass,
        };
        self.depth -= 1;
        self.stmts.push(lowered);
        self.stmts.len() as u32 - 1
    }

    fn import_root(&mut self, module: &str) {
        let root = self
            .names
            .intern(module.split('.').next().unwrap_or(module));
        self.imports.push(root);
    }

    /// Lowers a `def` body in a scope of its own: the names it binds
    /// anywhere (outside nested `def` bodies) become local slots.
    fn function(&mut self, params: &[String], body: &[Stmt]) -> u32 {
        let mut slots = HashMap::new();
        let mark = self.pending.len();
        for p in params {
            let slot = self.bind_local(p, &mut slots);
            self.pending.push(slot);
        }
        let params = self.span_from(mark);
        self.bound_names(body, &mut slots);
        let locals = slots.len() as u32;
        let outer_scope = self.scope.replace(slots);
        let (outer_depth, outer_height) = (self.depth, self.height);
        self.depth = 0;
        self.height = 0;
        let body = self.block(body);
        let height = self.height;
        self.depth = outer_depth;
        self.height = outer_height;
        self.scope = outer_scope;
        self.functions.push(Function {
            params,
            locals,
            body,
            height,
        });
        self.functions.len() as u32 - 1
    }

    /// The local slot of `name`, assigned on first sight.
    fn bind_local(&mut self, name: &str, slots: &mut HashMap<u32, u32>) -> u32 {
        let sym = self.names.intern(name);
        let next = slots.len() as u32;
        *slots.entry(sym).or_insert(next)
    }

    /// Gives every name `body` binds (outside nested `def` bodies) a
    /// local slot.
    fn bound_names(&mut self, body: &[Stmt], slots: &mut HashMap<u32, u32>) {
        for stmt in body {
            match stmt {
                Stmt::Import { module, alias } => {
                    let local = alias
                        .as_deref()
                        .unwrap_or_else(|| module.split('.').next().unwrap_or(module));
                    self.bind_local(local, slots);
                }
                Stmt::FromImport { name, alias, .. } => {
                    self.bind_local(alias.as_deref().unwrap_or(name), slots);
                }
                Stmt::Assign {
                    target: Expr::Name(name),
                    ..
                }
                | Stmt::FunctionDef { name, .. } => {
                    self.bind_local(name, slots);
                }
                Stmt::For { var, body, .. } => {
                    self.bind_local(var, slots);
                    self.bound_names(body, slots);
                }
                Stmt::If { body, orelse, .. } => {
                    self.bound_names(body, slots);
                    self.bound_names(orelse, slots);
                }
                Stmt::While { body, .. } => self.bound_names(body, slots),
                Stmt::Try { body, handler } => {
                    self.bound_names(body, slots);
                    self.bound_names(handler, slots);
                }
                Stmt::Assign { .. }
                | Stmt::Expr(_)
                | Stmt::Return(_)
                | Stmt::Raise(_)
                | Stmt::Pass => {}
            }
        }
    }

    fn push(&mut self, e: LExpr) -> u32 {
        self.exprs.push(e);
        self.exprs.len() as u32 - 1
    }

    /// Lowers `expr`, returning its id and, for a name or an attribute
    /// chain rooted at one, its static dotted path.
    fn expr(&mut self, expr: &Expr) -> (u32, Option<u32>) {
        self.enter();
        let mut path = None;
        let lowered = match expr {
            Expr::Name(name) => {
                let global = self.global(name);
                let sym = self.globals[global as usize];
                path = Some(sym);
                match self.scope.as_ref().and_then(|slots| slots.get(&sym)) {
                    Some(&slot) => LExpr::Local { slot, global },
                    None => LExpr::Global(global),
                }
            }
            Expr::Str(s) => LExpr::Const(self.string(s)),
            Expr::Int(v) => LExpr::Const(self.constant(Value::Int(*v))),
            Expr::Float(v) => LExpr::Const(self.constant(Value::Float(*v))),
            Expr::Bool(b) => LExpr::Const(self.constant(Value::Bool(*b))),
            Expr::NoneLit => LExpr::Const(self.constant(Value::NoneV)),
            Expr::List(items) => {
                let mark = self.pending.len();
                for item in items {
                    let id = self.expr(item).0;
                    self.pending.push(id);
                }
                LExpr::List(self.span_from(mark))
            }
            Expr::Dict(pairs) => {
                let mark = self.pending.len();
                for (k, v) in pairs {
                    let k = self.expr(k).0;
                    self.pending.push(k);
                    let v = self.expr(v).0;
                    self.pending.push(v);
                }
                LExpr::Dict(self.span_from(mark))
            }
            Expr::Attribute { value, attr } => {
                let (base, base_path) = self.expr(value);
                let attr = self.names.intern(attr);
                if let Some(base_path) = base_path {
                    let joined = self.join(base_path, attr);
                    self.paths.push(joined);
                    path = Some(joined);
                }
                self.attr_sites += 1;
                LExpr::Attr {
                    base,
                    attr,
                    site: self.attr_sites - 1,
                }
            }
            Expr::Index { value, index } => LExpr::Index {
                base: self.expr(value).0,
                index: self.expr(index).0,
            },
            Expr::Binary { op, lhs, rhs } => LExpr::Binary {
                op: *op,
                lhs: self.expr(lhs).0,
                rhs: self.expr(rhs).0,
            },
            Expr::Unary { op, operand } => LExpr::Unary {
                op: *op,
                operand: self.expr(operand).0,
            },
            Expr::Call { callee, args } => {
                if let Expr::Name(n) = callee.as_ref() {
                    if n == "eval" || n == "exec" {
                        self.facts.calls_eval = true;
                    }
                }
                let (callee, callee_path) = self.expr(callee);
                if let Some(p) = callee_path {
                    self.paths.push(p);
                }
                let mark = self.pending.len();
                for arg in args {
                    let id = self.expr(arg).0;
                    self.pending.push(id);
                }
                LExpr::Call {
                    callee,
                    args: self.span_from(mark),
                }
            }
        };
        self.depth -= 1;
        (self.push(lowered), path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn lower(src: &str) -> Program {
        Program::lower(&parse(src).unwrap())
    }

    #[test]
    fn names_in_a_function_body_resolve_to_local_slots() {
        let p = lower("x = 1\ndef f(a):\n    y = a\n    return x\n");
        let f = &p.functions[0];
        // `a` and `y` are local; `x` is only read, so it stays global.
        assert_eq!(f.locals, 2);
        let globals: Vec<&str> = p
            .globals
            .iter()
            .map(|&g| &*p.names.strs[g as usize])
            .collect();
        assert!(globals.contains(&"x") && globals.contains(&"f"));
        assert!(p
            .exprs
            .iter()
            .any(|e| matches!(e, LExpr::Local { slot: 0, .. })));
    }

    #[test]
    fn static_paths_and_literals_are_interned_once() {
        let p = lower("import os\na = os.getenv('K')\nb = os.getenv('K')\n");
        assert_eq!(
            p.names.strs.iter().filter(|s| &***s == "os.getenv").count(),
            1
        );
        assert_eq!(p.facts().strings.len(), 1);
        assert_eq!(
            p.facts().paths.iter().map(|s| &**s).collect::<Vec<_>>(),
            ["os.getenv"]
        );
    }

    #[test]
    fn function_height_counts_nesting() {
        let p = lower("def f(n):\n    return f(n)\n");
        // return → call → name: three frames.
        assert_eq!(p.functions[0].height, 3);
    }
}
