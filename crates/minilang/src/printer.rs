//! Canonical pretty-printer: `parse ∘ print_module = id`.
//!
//! The printer defines the *canonical text* of a program. Package
//! signatures (`Sha256`-style hashes in `registry-sim`) and
//! line diffs (`diff`) both operate on this canonical text, mirroring how
//! the paper hashes and diffs the files inside a package archive.
//!
//! A module is written straight into one output `String`: a statement
//! pushes its indentation and its pieces, and an expression is written
//! in place by `write_expr`, which knows its operator's precedence
//! before it writes and so decides on parentheses up front. Printing
//! allocates only as that buffer grows. A float prints as Rust's
//! shortest round-trip decimal, given a `.0` when it has no point; the
//! lexer rejects a literal that overflows `f64`, so every float that
//! reaches the printer from source is finite and reparses to itself.

use crate::ast::{BinOp, Expr, Module, Stmt, UnaryOp};
use std::fmt::Write as _;

const INDENT: &str = "    ";

/// Renders a module as canonical source text.
///
/// Top-level function definitions are separated by a blank line, matching
/// the style of the generator; the output always ends with a newline
/// unless the module is empty.
///
/// # Examples
///
/// ```
/// use minilang::{parse, printer::print_module};
///
/// let m = parse("x = 1\n")?;
/// assert_eq!(print_module(&m), "x = 1\n");
/// # Ok::<(), minilang::ParseErr>(())
/// ```
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let mut prev_was_def = false;
    for (i, stmt) in module.body.iter().enumerate() {
        let is_def = matches!(stmt, Stmt::FunctionDef { .. });
        if i > 0 && (is_def || prev_was_def) {
            out.push('\n');
        }
        print_stmt(stmt, 0, &mut out);
        prev_was_def = is_def;
    }
    out
}

/// Renders a module and returns its lines, the unit of [`crate::diff`].
pub fn print_lines(module: &Module) -> Vec<String> {
    print_module(module).lines().map(str::to_owned).collect()
}

/// Renders a single expression.
pub fn print_expr(expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(expr, 0, &mut out);
    out
}

fn print_stmt(stmt: &Stmt, depth: usize, out: &mut String) {
    indent(depth, out);
    match stmt {
        Stmt::Import { module, alias } => {
            out.push_str("import ");
            out.push_str(module);
            write_alias(alias.as_deref(), out);
        }
        Stmt::FromImport {
            module,
            name,
            alias,
        } => {
            out.push_str("from ");
            out.push_str(module);
            out.push_str(" import ");
            out.push_str(name);
            write_alias(alias.as_deref(), out);
        }
        Stmt::Assign { target, value } => {
            write_expr(target, 0, out);
            out.push_str(" = ");
            write_expr(value, 0, out);
            out.push('\n');
        }
        Stmt::Expr(expr) => {
            write_expr(expr, 0, out);
            out.push('\n');
        }
        Stmt::FunctionDef { name, params, body } => {
            out.push_str("def ");
            out.push_str(name);
            out.push('(');
            write_joined(params, out, |param, out| out.push_str(param));
            out.push_str("):\n");
            print_block(body, depth + 1, out);
        }
        Stmt::If { cond, body, orelse } => {
            out.push_str("if ");
            write_expr(cond, 0, out);
            out.push_str(":\n");
            print_block(body, depth + 1, out);
            if !orelse.is_empty() {
                indent(depth, out);
                out.push_str("else:\n");
                print_block(orelse, depth + 1, out);
            }
        }
        Stmt::For { var, iter, body } => {
            out.push_str("for ");
            out.push_str(var);
            out.push_str(" in ");
            write_expr(iter, 0, out);
            out.push_str(":\n");
            print_block(body, depth + 1, out);
        }
        Stmt::While { cond, body } => {
            out.push_str("while ");
            write_expr(cond, 0, out);
            out.push_str(":\n");
            print_block(body, depth + 1, out);
        }
        Stmt::Try { body, handler } => {
            out.push_str("try:\n");
            print_block(body, depth + 1, out);
            indent(depth, out);
            out.push_str("except:\n");
            print_block(handler, depth + 1, out);
        }
        Stmt::Return(None) => out.push_str("return\n"),
        Stmt::Return(Some(value)) => {
            out.push_str("return ");
            write_expr(value, 0, out);
            out.push('\n');
        }
        Stmt::Raise(value) => {
            out.push_str("raise ");
            write_expr(value, 0, out);
            out.push('\n');
        }
        Stmt::Pass => out.push_str("pass\n"),
    }
}

fn indent(depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str(INDENT);
    }
}

fn print_block(body: &[Stmt], depth: usize, out: &mut String) {
    for stmt in body {
        print_stmt(stmt, depth, out);
    }
}

/// Ends an import line: ` as alias` if there is one, then the newline.
fn write_alias(alias: Option<&str>, out: &mut String) {
    if let Some(alias) = alias {
        out.push_str(" as ");
        out.push_str(alias);
    }
    out.push('\n');
}

/// Writes `expr`, parenthesized if its top-level operator binds looser
/// than `min_prec`.
fn write_expr(expr: &Expr, min_prec: u8, out: &mut String) {
    match expr {
        Expr::Name(n) => out.push_str(n),
        Expr::Str(s) => quote(s, out),
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Float(v) => {
            let start = out.len();
            let _ = write!(out, "{v}");
            if !out[start..].contains('.') {
                out.push_str(".0");
            }
        }
        Expr::Bool(true) => out.push_str("True"),
        Expr::Bool(false) => out.push_str("False"),
        Expr::NoneLit => out.push_str("None"),
        Expr::Call { callee, args } => {
            write_expr(callee, 7, out);
            out.push('(');
            write_joined(args, out, |arg, out| write_expr(arg, 0, out));
            out.push(')');
        }
        Expr::Attribute { value, attr } => {
            write_expr(value, 7, out);
            out.push('.');
            out.push_str(attr);
        }
        Expr::Index { value, index } => {
            write_expr(value, 7, out);
            out.push('[');
            write_expr(index, 0, out);
            out.push(']');
        }
        Expr::Binary { op, lhs, rhs } => {
            let prec = op.precedence();
            // Left-associative operators need rhs at prec+1; `**` is
            // right-associative and needs lhs at prec+1 instead.
            let (lmin, rmin) = if *op == BinOp::Pow {
                (prec + 1, prec)
            } else {
                (prec, prec + 1)
            };
            let paren = prec < min_prec;
            if paren {
                out.push('(');
            }
            write_expr(lhs, lmin, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(rhs, rmin, out);
            if paren {
                out.push(')');
            }
        }
        Expr::Unary { op, operand } => {
            // `-` binds looser than `**` and the postfix forms, whose
            // operands ask for 7, and tighter than `*`; its own operand
            // asks for 7 too, so `--x` prints as `-(-x)`. `not` sits
            // between comparisons and `and`.
            let (prec, symbol, operand_min) = match op {
                UnaryOp::Neg => (6, "-", 7),
                UnaryOp::Not => (2, "not ", 3),
            };
            let paren = prec < min_prec;
            if paren {
                out.push('(');
            }
            out.push_str(symbol);
            write_expr(operand, operand_min, out);
            if paren {
                out.push(')');
            }
        }
        Expr::List(items) => {
            out.push('[');
            write_joined(items, out, |item, out| write_expr(item, 0, out));
            out.push(']');
        }
        Expr::Dict(pairs) => {
            out.push('{');
            write_joined(pairs, out, |(key, value), out| {
                write_expr(key, 0, out);
                out.push_str(": ");
                write_expr(value, 0, out);
            });
            out.push('}');
        }
    }
}

/// Writes each of `items` with `write`, separated by `", "`.
fn write_joined<T>(items: &[T], out: &mut String, mut write: impl FnMut(&T, &mut String)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write(item, out);
    }
}

/// Appends `s` as a single-quoted literal, copying the text between
/// escapes in whole segments. Every escaped character is ASCII, so each
/// cut falls on a char boundary.
fn quote(s: &str, out: &mut String) {
    out.push('\'');
    let mut segment = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'\'' => "\\'",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            _ => continue,
        };
        out.push_str(&s[segment..i]);
        out.push_str(escape);
        segment = i + 1;
    }
    out.push_str(&s[segment..]);
    out.push('\'');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(src: &str) {
        let m = parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
        let printed = print_module(&m);
        let m2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(m, m2, "print/reparse changed the AST\n{printed}");
    }

    #[test]
    fn print_is_fixed_point() {
        let src = "import os\n\ndef run(a, b):\n    x = a + b * 2\n    if x > 3:\n        return x\n    return None\n";
        let m = parse(src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn round_trips() {
        for src in [
            "x = 1\n",
            "x = -y ** 2\n",
            "x = (a + b) * c\n",
            "z = a or b and not c\n",
            "v = items[0].field('k')[1]\n",
            "d = {'a': 1, 'b': [2, 3]}\n",
            "try:\n    go()\nexcept:\n    pass\n",
            "for i in seq:\n    go(i)\n",
            "while not done:\n    step()\n",
            "s = 'quote \\' and \\\\ and \\n'\n",
            "import a.b.c as abc\nfrom x.y import z as w\n",
            "f = 2.5\n",
            "s = \"a'b\\\\c\\nd\\te → é\"\n",
            "x = (-x) ** y\n",
            "x = (-x).y\n",
            "x = (-x)(y)\n",
            "x = (-x)[0]\n",
            "x = -x ** y\n",
            "x = 2 ** -x\n",
            "x = a * -x\n",
            "x = --x\n",
        ] {
            round_trip(src);
        }
        // 300 digits before the point: finite, so it prints in full.
        round_trip(&format!("x = 1{}.5\n", "0".repeat(299)));
    }

    #[test]
    fn parenthesization_preserves_shape() {
        // (a + b) * c must keep its parens; a + b * c must not gain any.
        let grouped = parse("x = (a + b) * c\n").unwrap();
        assert_eq!(print_module(&grouped), "x = (a + b) * c\n");
        let plain = parse("x = a + b * c\n").unwrap();
        assert_eq!(print_module(&plain), "x = a + b * c\n");
    }

    #[test]
    fn right_associative_pow() {
        let m = parse("x = a ** b ** c\n").unwrap();
        assert_eq!(print_module(&m), "x = a ** b ** c\n");
        let m = parse("x = (a ** b) ** c\n").unwrap();
        assert_eq!(print_module(&m), "x = (a ** b) ** c\n");
    }

    #[test]
    fn float_always_prints_with_point() {
        let m = parse("x = 2.0\n").unwrap();
        assert_eq!(print_module(&m), "x = 2.0\n");
    }

    #[test]
    fn print_expr_is_the_expression_statement() {
        for src in ["go(a, -b)\n", "not (a or b)\n", "{'k': [1, 2.5]}[x].y\n"] {
            let m = parse(src).unwrap();
            let Stmt::Expr(expr) = &m.body[0] else {
                panic!("{src} is not an expression statement");
            };
            assert_eq!(format!("{}\n", print_expr(expr)), print_module(&m));
        }
    }

    #[test]
    fn defs_get_blank_line_separation() {
        let src = "def a():\n    pass\n\ndef b():\n    pass\n";
        let m = parse(src).unwrap();
        assert_eq!(print_module(&m), src);
    }

    #[test]
    fn print_lines_splits() {
        let m = parse("x = 1\ny = 2\n").unwrap();
        assert_eq!(print_lines(&m), vec!["x = 1", "y = 2"]);
    }
}
