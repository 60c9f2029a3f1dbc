//! Recursive-descent parser for PyLite.

use crate::ast::{BinOp, Expr, Module, Stmt, UnaryOp};
use crate::lexer::{lex, LexError, SpannedToken, Token};
use std::fmt;

/// A parse (or lex) error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseErr {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
    /// What kind of problem it is.
    pub kind: ParseErrKind,
}

/// The kind of a [`ParseErr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrKind {
    /// A lexical or syntactic problem.
    Syntax,
    /// Nesting past [`MAX_NESTING`] levels.
    TooDeep,
}

impl fmt::Display for ParseErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseErr {}

fn syntax_err(line: usize, message: impl Into<String>) -> ParseErr {
    ParseErr {
        line,
        message: message.into(),
        kind: ParseErrKind::Syntax,
    }
}

impl From<LexError> for ParseErr {
    fn from(err: LexError) -> Self {
        syntax_err(err.line, err.message)
    }
}

/// Nesting levels a source may reach: enclosing blocks, brackets, call
/// argument lists, unary operators and left-folded operator or postfix
/// chains (`a + b + c`, `x.y.z`) each count one. Every AST consumer
/// recurses on the tree, so the cap is what keeps hostile input from
/// overflowing the stack of the 2 MiB worker threads, even in a debug
/// build. Generated code reaches 14 (worlds of seeds 42, 77 and 913).
pub const MAX_NESTING: usize = 100;

const KEYWORDS: [&str; 18] = [
    "def", "return", "if", "elif", "else", "for", "while", "in", "import", "from", "as", "try",
    "except", "raise", "pass", "not", "and", "or",
];

/// Parses PyLite source into a [`Module`].
///
/// # Errors
///
/// Returns [`ParseErr`] on any lexical or syntactic problem, carrying the
/// 1-based source line, and when nesting passes [`MAX_NESTING`].
///
/// # Examples
///
/// ```
/// use minilang::parse;
///
/// let m = parse("import os\nx = os.getenv('PATH')\n")?;
/// assert_eq!(m.body.len(), 2);
/// # Ok::<(), minilang::ParseErr>(())
/// ```
pub fn parse(source: &str) -> Result<Module, ParseErr> {
    let tokens = lex(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let body = parser.parse_block_until_eof()?;
    Ok(Module::new(body))
}

struct Parser<'src> {
    tokens: Vec<SpannedToken<'src>>,
    pos: usize,
    /// Nesting levels open at the cursor.
    depth: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &Token<'src> {
        &self.tokens[self.pos].token
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> Token<'src> {
        // Take the token out of its slot instead of cloning it — the
        // cursor never moves backwards, so the slot is never re-read
        // (the final slot stays `Eof` either way).
        let t = std::mem::replace(&mut self.tokens[self.pos].token, Token::Eof);
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseErr {
        syntax_err(self.line(), message)
    }

    /// Opens a nesting level; the caller closes it with [`Self::leave`].
    fn enter(&mut self) -> Result<(), ParseErr> {
        if self.depth >= MAX_NESTING {
            return Err(ParseErr {
                kind: ParseErrKind::TooDeep,
                ..self.err(format!("nesting deeper than {MAX_NESTING} levels"))
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn leave(&mut self, levels: usize) {
        self.depth -= levels;
    }

    fn expect_op(&mut self, op: &'static str) -> Result<(), ParseErr> {
        match self.peek() {
            Token::Op(found) if *found == op => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected {op:?}, found {other}"))),
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseErr> {
        match self.peek() {
            Token::Newline => {
                self.bump();
                Ok(())
            }
            other => Err(self.err(format!("expected end of line, found {other}"))),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if let Token::Ident(name) = self.peek() {
            if *name == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(name) if *name == kw)
    }

    /// An identifier that is not a keyword, borrowed from the source.
    fn expect_name(&mut self) -> Result<&'src str, ParseErr> {
        match *self.peek() {
            Token::Ident(name) if !KEYWORDS.contains(&name) => {
                self.bump();
                Ok(name)
            }
            ref other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    /// [`Self::expect_name`], copied once into the AST's `String`.
    fn expect_ident(&mut self) -> Result<String, ParseErr> {
        self.expect_name().map(str::to_owned)
    }

    fn parse_block_until_eof(&mut self) -> Result<Vec<Stmt>, ParseErr> {
        let mut body = Vec::new();
        while !matches!(self.peek(), Token::Eof) {
            body.push(self.parse_stmt()?);
        }
        Ok(body)
    }

    /// Parses `: NEWLINE INDENT stmt+ DEDENT`.
    fn parse_suite(&mut self) -> Result<Vec<Stmt>, ParseErr> {
        self.enter()?;
        let body = self.parse_suite_body();
        self.leave(1);
        body
    }

    fn parse_suite_body(&mut self) -> Result<Vec<Stmt>, ParseErr> {
        self.expect_op(":")?;
        self.expect_newline()?;
        match self.peek() {
            Token::Indent => {
                self.bump();
            }
            other => return Err(self.err(format!("expected an indented block, found {other}"))),
        }
        let mut body = Vec::new();
        while !matches!(self.peek(), Token::Dedent | Token::Eof) {
            body.push(self.parse_stmt()?);
        }
        if matches!(self.peek(), Token::Dedent) {
            self.bump();
        }
        if body.is_empty() {
            return Err(self.err("empty block"));
        }
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseErr> {
        if self.at_keyword("import") {
            return self.parse_import();
        }
        if self.at_keyword("from") {
            return self.parse_from_import();
        }
        if self.at_keyword("def") {
            return self.parse_def();
        }
        if self.at_keyword("if") {
            return self.parse_if();
        }
        if self.at_keyword("for") {
            return self.parse_for();
        }
        if self.at_keyword("while") {
            return self.parse_while();
        }
        if self.at_keyword("try") {
            return self.parse_try();
        }
        if self.eat_keyword("return") {
            let value = if matches!(self.peek(), Token::Newline) {
                None
            } else {
                Some(self.parse_expr()?)
            };
            self.expect_newline()?;
            return Ok(Stmt::Return(value));
        }
        if self.eat_keyword("raise") {
            let value = self.parse_expr()?;
            self.expect_newline()?;
            return Ok(Stmt::Raise(value));
        }
        if self.eat_keyword("pass") {
            self.expect_newline()?;
            return Ok(Stmt::Pass);
        }

        // Assignment or expression statement.
        let first = self.parse_expr()?;
        if matches!(self.peek(), Token::Op("=")) {
            self.bump();
            match &first {
                Expr::Name(_) | Expr::Attribute { .. } | Expr::Index { .. } => {}
                _ => return Err(self.err("invalid assignment target")),
            }
            let value = self.parse_expr()?;
            self.expect_newline()?;
            return Ok(Stmt::Assign {
                target: first,
                value,
            });
        }
        self.expect_newline()?;
        Ok(Stmt::Expr(first))
    }

    fn parse_import(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // import
        let module = self.parse_dotted_name()?;
        let alias = if self.eat_keyword("as") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect_newline()?;
        Ok(Stmt::Import { module, alias })
    }

    fn parse_from_import(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // from
        let module = self.parse_dotted_name()?;
        if !self.eat_keyword("import") {
            return Err(self.err("expected 'import' after module path"));
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword("as") {
            Some(self.expect_ident()?)
        } else {
            None
        };
        self.expect_newline()?;
        Ok(Stmt::FromImport {
            module,
            name,
            alias,
        })
    }

    fn parse_dotted_name(&mut self) -> Result<String, ParseErr> {
        let mut name = self.expect_ident()?;
        while matches!(self.peek(), Token::Op(".")) {
            self.bump();
            name.push('.');
            name.push_str(self.expect_name()?);
        }
        Ok(name)
    }

    fn parse_def(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // def
        let name = self.expect_ident()?;
        self.expect_op("(")?;
        let mut params = Vec::new();
        if !matches!(self.peek(), Token::Op(")")) {
            loop {
                params.push(self.expect_ident()?);
                if matches!(self.peek(), Token::Op(",")) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_op(")")?;
        let body = self.parse_suite()?;
        Ok(Stmt::FunctionDef { name, params, body })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // if / elif
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        let orelse = if self.at_keyword("elif") {
            vec![self.parse_if_from_elif()?]
        } else if self.eat_keyword("else") {
            self.parse_suite()?
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, body, orelse })
    }

    fn parse_if_from_elif(&mut self) -> Result<Stmt, ParseErr> {
        // `elif` behaves exactly like a nested `if`.
        self.enter()?;
        let stmt = self.parse_if();
        self.leave(1);
        stmt
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // for
        let var = self.expect_ident()?;
        if !self.eat_keyword("in") {
            return Err(self.err("expected 'in' in for statement"));
        }
        let iter = self.parse_expr()?;
        let body = self.parse_suite()?;
        Ok(Stmt::For { var, iter, body })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // while
        let cond = self.parse_expr()?;
        let body = self.parse_suite()?;
        Ok(Stmt::While { cond, body })
    }

    fn parse_try(&mut self) -> Result<Stmt, ParseErr> {
        self.bump(); // try
        let body = self.parse_suite()?;
        if !self.eat_keyword("except") {
            return Err(self.err("expected 'except' after try block"));
        }
        let handler = self.parse_suite()?;
        Ok(Stmt::Try { body, handler })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseErr> {
        self.enter()?;
        let expr = self.parse_or();
        self.leave(1);
        expr
    }

    fn parse_or(&mut self) -> Result<Expr, ParseErr> {
        let mut lhs = self.parse_and()?;
        let mut levels = 0;
        while self.at_keyword("or") {
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseErr> {
        let mut lhs = self.parse_not()?;
        let mut levels = 0;
        while self.at_keyword("and") {
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.parse_not()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseErr> {
        if self.eat_keyword("not") {
            self.enter()?;
            let operand = self.parse_not()?;
            self.leave(1);
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseErr> {
        let mut lhs = self.parse_arith()?;
        let mut levels = 0;
        loop {
            let op = match self.peek() {
                Token::Op("==") => BinOp::Eq,
                Token::Op("!=") => BinOp::Ne,
                Token::Op("<") => BinOp::Lt,
                Token::Op("<=") => BinOp::Le,
                Token::Op(">") => BinOp::Gt,
                Token::Op(">=") => BinOp::Ge,
                Token::Ident("in") => BinOp::In,
                _ => break,
            };
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.parse_arith()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_arith(&mut self) -> Result<Expr, ParseErr> {
        let mut lhs = self.parse_term()?;
        let mut levels = 0;
        loop {
            let op = match self.peek() {
                Token::Op("+") => BinOp::Add,
                Token::Op("-") => BinOp::Sub,
                _ => break,
            };
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.parse_term()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_term(&mut self) -> Result<Expr, ParseErr> {
        let mut lhs = self.parse_factor()?;
        let mut levels = 0;
        loop {
            let op = match self.peek() {
                Token::Op("*") => BinOp::Mul,
                Token::Op("/") => BinOp::Div,
                Token::Op("%") => BinOp::Mod,
                _ => break,
            };
            self.enter()?;
            levels += 1;
            self.bump();
            let rhs = self.parse_factor()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        self.leave(levels);
        Ok(lhs)
    }

    fn parse_factor(&mut self) -> Result<Expr, ParseErr> {
        if matches!(self.peek(), Token::Op("-")) {
            self.bump();
            self.enter()?;
            let operand = self.parse_factor()?;
            self.leave(1);
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Expr, ParseErr> {
        let base = self.parse_postfix()?;
        if matches!(self.peek(), Token::Op("**")) {
            self.bump();
            self.enter()?;
            let exp = self.parse_factor()?; // right-associative
            self.leave(1);
            return Ok(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseErr> {
        let mut expr = self.parse_atom()?;
        let mut levels = 0;
        loop {
            if matches!(self.peek(), Token::Op("(" | "." | "[")) {
                self.enter()?;
                levels += 1;
            }
            match self.peek() {
                Token::Op("(") => {
                    self.bump();
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Token::Op(")")) {
                        loop {
                            args.push(self.parse_expr()?);
                            if matches!(self.peek(), Token::Op(",")) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect_op(")")?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                    };
                }
                Token::Op(".") => {
                    self.bump();
                    let attr = self.expect_ident()?;
                    expr = Expr::Attribute {
                        value: Box::new(expr),
                        attr,
                    };
                }
                Token::Op("[") => {
                    self.bump();
                    let index = self.parse_expr()?;
                    self.expect_op("]")?;
                    expr = Expr::Index {
                        value: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                _ => break,
            }
        }
        self.leave(levels);
        Ok(expr)
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseErr> {
        // Take the token rather than clone it: an error ends the parse,
        // so only its line has to be read before the cursor moves.
        let line = self.line();
        match self.bump() {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Float(v) => Ok(Expr::Float(v)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Ident("True") => Ok(Expr::Bool(true)),
            Token::Ident("False") => Ok(Expr::Bool(false)),
            Token::Ident("None") => Ok(Expr::NoneLit),
            Token::Ident(name) if KEYWORDS.contains(&name) => {
                Err(syntax_err(line, format!("unexpected keyword {name:?}")))
            }
            Token::Ident(name) => Ok(Expr::Name(name.to_owned())),
            Token::Op("(") => {
                let inner = self.parse_expr()?;
                self.expect_op(")")?;
                Ok(inner)
            }
            Token::Op("[") => {
                let mut items = Vec::new();
                if !matches!(self.peek(), Token::Op("]")) {
                    loop {
                        items.push(self.parse_expr()?);
                        if matches!(self.peek(), Token::Op(",")) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_op("]")?;
                Ok(Expr::List(items))
            }
            Token::Op("{") => {
                let mut pairs = Vec::new();
                if !matches!(self.peek(), Token::Op("}")) {
                    loop {
                        let key = self.parse_expr()?;
                        self.expect_op(":")?;
                        let value = self.parse_expr()?;
                        pairs.push((key, value));
                        if matches!(self.peek(), Token::Op(",")) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect_op("}")?;
                Ok(Expr::Dict(pairs))
            }
            other => Err(syntax_err(line, format!("unexpected {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignment_and_call() {
        let m = parse("x = os.getenv('HOME')\n").unwrap();
        assert_eq!(m.body.len(), 1);
        match &m.body[0] {
            Stmt::Assign { target, value } => {
                assert_eq!(target, &Expr::name("x"));
                assert_eq!(value.kind(), "Call");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_function_with_control_flow() {
        let src = "def sync(url, data):\n    if data:\n        requests.post(url, data)\n    else:\n        pass\n    return True\n";
        let m = parse(src).unwrap();
        match &m.body[0] {
            Stmt::FunctionDef { name, params, body } => {
                assert_eq!(name, "sync");
                assert_eq!(params, &["url".to_string(), "data".to_string()]);
                assert_eq!(body.len(), 2);
                assert!(matches!(&body[0], Stmt::If { orelse, .. } if orelse.len() == 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn elif_desugars_to_nested_if() {
        let src = "if a:\n    pass\nelif b:\n    pass\nelse:\n    pass\n";
        let m = parse(src).unwrap();
        match &m.body[0] {
            Stmt::If { orelse, .. } => {
                assert_eq!(orelse.len(), 1);
                assert!(matches!(&orelse[0], Stmt::If { orelse, .. } if orelse.len() == 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let m = parse("x = a + b * c\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn power_is_right_associative() {
        let m = parse("x = a ** b ** c\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => match value {
                Expr::Binary {
                    op: BinOp::Pow,
                    rhs,
                    ..
                } => {
                    assert!(matches!(rhs.as_ref(), Expr::Binary { op: BinOp::Pow, .. }));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn chained_postfix() {
        let m = parse("v = cfg['hosts'][0].name\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(value.kind(), "Attribute"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn try_except_and_raise() {
        let src = "try:\n    risky()\nexcept:\n    raise ValueError('boom')\n";
        let m = parse(src).unwrap();
        assert!(matches!(&m.body[0], Stmt::Try { body, handler }
            if body.len() == 1 && handler.len() == 1));
    }

    #[test]
    fn imports() {
        let m = parse("import os.path as p\nfrom subprocess import run as r\n").unwrap();
        assert_eq!(
            m.body[0],
            Stmt::Import {
                module: "os.path".into(),
                alias: Some("p".into())
            }
        );
        assert_eq!(
            m.body[1],
            Stmt::FromImport {
                module: "subprocess".into(),
                name: "run".into(),
                alias: Some("r".into())
            }
        );
    }

    #[test]
    fn list_and_dict_literals() {
        let m = parse("cfg = {'hosts': [1, 2], 'on': True, 'x': None}\n").unwrap();
        match &m.body[0] {
            Stmt::Assign {
                value: Expr::Dict(pairs),
                ..
            } => assert_eq!(pairs.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn boolean_operators_and_not() {
        let m = parse("ok = not a and b or c in d\n").unwrap();
        match &m.body[0] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value, Expr::Binary { op: BinOp::Or, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_line() {
        let err = parse("x = 1\ny = (\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn invalid_assignment_target_rejected() {
        let err = parse("f() = 3\n").unwrap_err();
        assert!(err.message.contains("assignment target"));
    }

    #[test]
    fn empty_block_rejected() {
        assert!(parse("if x:\npass\n").is_err());
    }

    #[test]
    fn keyword_cannot_be_identifier() {
        assert!(parse("def = 3\n").is_err());
        assert!(parse("x = def\n").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let deep = |open: &str, close: &str, n: usize| {
            format!("x = {}1{}\n", open.repeat(n), close.repeat(n))
        };
        // Brackets, calls, unary chains and folded operator chains all
        // count, and so do blocks.
        let chain = format!("x = a{}\n", " + a".repeat(MAX_NESTING));
        let attrs = format!("x = a{}\n", ".b".repeat(MAX_NESTING));
        let mut blocks = String::new();
        for level in 0..=MAX_NESTING {
            blocks.push_str(&" ".repeat(level * 4));
            blocks.push_str("if x:\n");
        }
        blocks.push_str(&" ".repeat((MAX_NESTING + 1) * 4));
        blocks.push_str("pass\n");
        for src in [
            deep("(", ")", 50_000),
            deep("[", "]", MAX_NESTING),
            deep("f(", ")", MAX_NESTING),
            deep("-", "", MAX_NESTING + 1),
            deep("not ", "", MAX_NESTING + 1),
            chain,
            attrs,
            blocks,
        ] {
            let err = parse(&src).unwrap_err();
            assert_eq!(err.kind, ParseErrKind::TooDeep, "{err}");
        }
        // Well inside the limit, and in sequence rather than nested,
        // everything parses.
        assert!(parse(&deep("(", ")", MAX_NESTING / 2)).is_ok());
        assert!(parse(&format!("x = a{}\n", " + a".repeat(MAX_NESTING / 2))).is_ok());
        assert!(parse(&"x = [1]\n".repeat(MAX_NESTING * 2)).is_ok());
    }

    #[test]
    fn the_deepest_accepted_source_parses_on_a_small_stack() {
        let src = format!(
            "x = {}1{}\n",
            "(".repeat(MAX_NESTING - 1),
            ")".repeat(MAX_NESTING - 1)
        );
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse(&src).is_ok())
            .unwrap()
            .join()
            .expect("no stack overflow");
        assert!(parsed);
    }

    #[test]
    fn empty_source_parses_to_empty_module() {
        let m = parse("").unwrap();
        assert!(m.body.is_empty());
        let m = parse("# only a comment\n").unwrap();
        assert!(m.body.is_empty());
    }
}
