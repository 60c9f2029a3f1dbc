//! Abstract syntax tree for PyLite.

/// A whole source file: a sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Top-level statements in source order.
    pub body: Vec<Stmt>,
}

impl Module {
    /// Creates a module from statements.
    pub fn new(body: Vec<Stmt>) -> Self {
        Module { body }
    }

    /// Total number of AST nodes (statements + expressions), used as a
    /// crude program-size metric by the generator and benchmarks.
    pub fn node_count(&self) -> usize {
        self.body.iter().map(Stmt::node_count).sum()
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `import os` / `import os as o`.
    Import {
        /// Module path, e.g. `os.path`.
        module: String,
        /// Optional local alias.
        alias: Option<String>,
    },
    /// `from os import getenv` / `from os import getenv as ge`.
    FromImport {
        /// Module path.
        module: String,
        /// Imported name.
        name: String,
        /// Optional local alias.
        alias: Option<String>,
    },
    /// `target = value`.
    Assign {
        /// Assignment target (a name, attribute or index expression).
        target: Expr,
        /// Assigned value.
        value: Expr,
    },
    /// A bare expression evaluated for effect, usually a call.
    Expr(Expr),
    /// `def name(params):` and an indented body.
    FunctionDef {
        /// Function name.
        name: String,
        /// Parameter names.
        params: Vec<String>,
        /// Body statements (non-empty).
        body: Vec<Stmt>,
    },
    /// `if cond:` with optional `elif`/`else` chain (desugared so that
    /// `orelse` is either empty, another `If`, or plain statements).
    If {
        /// Condition expression.
        cond: Expr,
        /// Then-branch statements (non-empty).
        body: Vec<Stmt>,
        /// Else-branch statements (possibly empty).
        orelse: Vec<Stmt>,
    },
    /// `for var in iter:`.
    For {
        /// Loop variable name.
        var: String,
        /// Iterated expression.
        iter: Expr,
        /// Body statements (non-empty).
        body: Vec<Stmt>,
    },
    /// `while cond:`.
    While {
        /// Condition expression.
        cond: Expr,
        /// Body statements (non-empty).
        body: Vec<Stmt>,
    },
    /// `try:` / `except:` — the catch-all form malicious droppers use to
    /// stay silent on failure.
    Try {
        /// Guarded statements.
        body: Vec<Stmt>,
        /// Handler statements.
        handler: Vec<Stmt>,
    },
    /// `return` with optional value.
    Return(Option<Expr>),
    /// `raise expr`.
    Raise(Expr),
    /// `pass`.
    Pass,
}

impl Stmt {
    /// Number of AST nodes in this statement, inclusive.
    pub fn node_count(&self) -> usize {
        match self {
            Stmt::Import { .. } | Stmt::FromImport { .. } | Stmt::Pass => 1,
            Stmt::Assign { target, value } => 1 + target.node_count() + value.node_count(),
            Stmt::Expr(e) => 1 + e.node_count(),
            Stmt::FunctionDef { body, .. } => 1 + body.iter().map(Stmt::node_count).sum::<usize>(),
            Stmt::If { cond, body, orelse } => {
                1 + cond.node_count()
                    + body.iter().map(Stmt::node_count).sum::<usize>()
                    + orelse.iter().map(Stmt::node_count).sum::<usize>()
            }
            Stmt::For { iter, body, .. } => {
                1 + iter.node_count() + body.iter().map(Stmt::node_count).sum::<usize>()
            }
            Stmt::While { cond, body } => {
                1 + cond.node_count() + body.iter().map(Stmt::node_count).sum::<usize>()
            }
            Stmt::Try { body, handler } => {
                1 + body.iter().map(Stmt::node_count).sum::<usize>()
                    + handler.iter().map(Stmt::node_count).sum::<usize>()
            }
            Stmt::Return(Some(e)) => 1 + e.node_count(),
            Stmt::Return(None) => 1,
            Stmt::Raise(e) => 1 + e.node_count(),
        }
    }

    /// A short label naming the node kind, used for AST-path embeddings.
    pub fn kind(&self) -> &'static str {
        match self {
            Stmt::Import { .. } => "Import",
            Stmt::FromImport { .. } => "FromImport",
            Stmt::Assign { .. } => "Assign",
            Stmt::Expr(_) => "ExprStmt",
            Stmt::FunctionDef { .. } => "FunctionDef",
            Stmt::If { .. } => "If",
            Stmt::For { .. } => "For",
            Stmt::While { .. } => "While",
            Stmt::Try { .. } => "Try",
            Stmt::Return(_) => "Return",
            Stmt::Raise(_) => "Raise",
            Stmt::Pass => "Pass",
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `**`
    Pow,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
    /// `in`
    In,
}

impl BinOp {
    /// Surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Pow => "**",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::In => "in",
        }
    }

    /// Binding strength; higher binds tighter. Used by the printer to
    /// decide where parentheses are required.
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::In => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
            BinOp::Pow => 6,
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `not`
    Not,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An identifier reference.
    Name(String),
    /// A string literal (stored unescaped).
    Str(String),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// `True` / `False`.
    Bool(bool),
    /// `None`.
    NoneLit,
    /// `callee(args…)`.
    Call {
        /// Called expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `value.attr`.
    Attribute {
        /// Base expression.
        value: Box<Expr>,
        /// Attribute name.
        attr: String,
    },
    /// `value[index]`.
    Index {
        /// Base expression.
        value: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// `lhs op rhs`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `op operand`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// `[a, b, …]`.
    List(Vec<Expr>),
    /// `{k: v, …}`.
    Dict(Vec<(Expr, Expr)>),
}

impl Expr {
    /// Convenience constructor for a name reference.
    pub fn name(s: impl Into<String>) -> Expr {
        Expr::Name(s.into())
    }

    /// Convenience constructor for a string literal.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Str(s.into())
    }

    /// Convenience constructor for `base.attr`.
    pub fn attr(base: Expr, attr: impl Into<String>) -> Expr {
        Expr::Attribute {
            value: Box::new(base),
            attr: attr.into(),
        }
    }

    /// Convenience constructor for a call.
    pub fn call(callee: Expr, args: Vec<Expr>) -> Expr {
        Expr::Call {
            callee: Box::new(callee),
            args,
        }
    }

    /// Convenience constructor for `module.func(args…)` call chains.
    pub fn mcall(module: &str, func: &str, args: Vec<Expr>) -> Expr {
        Expr::call(Expr::attr(Expr::name(module), func), args)
    }

    /// Number of AST nodes in this expression, inclusive.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Name(_)
            | Expr::Str(_)
            | Expr::Int(_)
            | Expr::Float(_)
            | Expr::Bool(_)
            | Expr::NoneLit => 1,
            Expr::Call { callee, args } => {
                1 + callee.node_count() + args.iter().map(Expr::node_count).sum::<usize>()
            }
            Expr::Attribute { value, .. } => 1 + value.node_count(),
            Expr::Index { value, index } => 1 + value.node_count() + index.node_count(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.node_count() + rhs.node_count(),
            Expr::Unary { operand, .. } => 1 + operand.node_count(),
            Expr::List(items) => 1 + items.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Dict(pairs) => {
                1 + pairs
                    .iter()
                    .map(|(k, v)| k.node_count() + v.node_count())
                    .sum::<usize>()
            }
        }
    }

    /// A short label naming the node kind, used for AST-path embeddings.
    pub fn kind(&self) -> &'static str {
        match self {
            Expr::Name(_) => "Name",
            Expr::Str(_) => "Str",
            Expr::Int(_) => "Int",
            Expr::Float(_) => "Float",
            Expr::Bool(_) => "Bool",
            Expr::NoneLit => "None",
            Expr::Call { .. } => "Call",
            Expr::Attribute { .. } => "Attribute",
            Expr::Index { .. } => "Index",
            Expr::Binary { .. } => "Binary",
            Expr::Unary { .. } => "Unary",
            Expr::List(_) => "List",
            Expr::Dict(_) => "Dict",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_counts_inclusively() {
        // x = a + b  →  Assign + Name + (Binary + Name + Name) = 5
        let stmt = Stmt::Assign {
            target: Expr::name("x"),
            value: Expr::Binary {
                op: BinOp::Add,
                lhs: Box::new(Expr::name("a")),
                rhs: Box::new(Expr::name("b")),
            },
        };
        assert_eq!(stmt.node_count(), 5);
    }

    #[test]
    fn mcall_builds_attribute_call() {
        let e = Expr::mcall("os", "getenv", vec![Expr::str("HOME")]);
        match &e {
            Expr::Call { callee, args } => {
                assert_eq!(args.len(), 1);
                match callee.as_ref() {
                    Expr::Attribute { value, attr } => {
                        assert_eq!(attr, "getenv");
                        assert_eq!(value.as_ref(), &Expr::name("os"));
                    }
                    other => panic!("expected attribute, got {other:?}"),
                }
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(Stmt::Pass.kind(), "Pass");
        assert_eq!(Expr::NoneLit.kind(), "None");
        assert_eq!(Expr::name("x").kind(), "Name");
    }

    #[test]
    fn module_node_count_sums_statements() {
        let m = Module::new(vec![Stmt::Pass, Stmt::Pass]);
        assert_eq!(m.node_count(), 2);
    }
}
