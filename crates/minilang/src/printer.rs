//! Canonical pretty-printer: `parse ∘ print_module = id`.
//!
//! The printer defines the *canonical text* of a program. Package
//! signatures (`Sha256`-style hashes in `registry-sim`) and
//! line diffs (`diff`) both operate on this canonical text, mirroring how
//! the paper hashes and diffs the files inside a package archive.

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

fn print_stmt(stmt: &Stmt, depth: usize, out: &mut String) {
    let pad = INDENT.repeat(depth);
    match stmt {
        Stmt::Import { module, alias } => {
            let _ = write!(out, "{pad}import {module}");
            if let Some(alias) = alias {
                let _ = write!(out, " as {alias}");
            }
            out.push('\n');
        }
        Stmt::FromImport {
            module,
            name,
            alias,
        } => {
            let _ = write!(out, "{pad}from {module} import {name}");
            if let Some(alias) = alias {
                let _ = write!(out, " as {alias}");
            }
            out.push('\n');
        }
        Stmt::Assign { target, value } => {
            let _ = writeln!(out, "{pad}{} = {}", print_expr(target), print_expr(value));
        }
        Stmt::Expr(expr) => {
            let _ = writeln!(out, "{pad}{}", print_expr(expr));
        }
        Stmt::FunctionDef { name, params, body } => {
            let _ = writeln!(out, "{pad}def {name}({}):", params.join(", "));
            for s in body {
                print_stmt(s, depth + 1, out);
            }
        }
        Stmt::If { cond, body, orelse } => {
            let _ = writeln!(out, "{pad}if {}:", print_expr(cond));
            for s in body {
                print_stmt(s, depth + 1, out);
            }
            if !orelse.is_empty() {
                let _ = writeln!(out, "{pad}else:");
                for s in orelse {
                    print_stmt(s, depth + 1, out);
                }
            }
        }
        Stmt::For { var, iter, body } => {
            let _ = writeln!(out, "{pad}for {var} in {}:", print_expr(iter));
            for s in body {
                print_stmt(s, depth + 1, out);
            }
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "{pad}while {}:", print_expr(cond));
            for s in body {
                print_stmt(s, depth + 1, out);
            }
        }
        Stmt::Try { body, handler } => {
            let _ = writeln!(out, "{pad}try:");
            for s in body {
                print_stmt(s, depth + 1, out);
            }
            let _ = writeln!(out, "{pad}except:");
            for s in handler {
                print_stmt(s, depth + 1, out);
            }
        }
        Stmt::Return(None) => {
            let _ = writeln!(out, "{pad}return");
        }
        Stmt::Return(Some(value)) => {
            let _ = writeln!(out, "{pad}return {}", print_expr(value));
        }
        Stmt::Raise(value) => {
            let _ = writeln!(out, "{pad}raise {}", print_expr(value));
        }
        Stmt::Pass => {
            let _ = writeln!(out, "{pad}pass");
        }
    }
}

/// Renders a single expression.
pub fn print_expr(expr: &Expr) -> String {
    print_prec(expr, 0)
}

/// Prints `expr`, parenthesizing if its top-level operator binds looser
/// than `min_prec`.
fn print_prec(expr: &Expr, min_prec: u8) -> String {
    match expr {
        Expr::Name(n) => n.clone(),
        Expr::Str(s) => quote(s),
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            let s = v.to_string();
            if s.contains('.') || s.contains('e') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Bool(true) => "True".into(),
        Expr::Bool(false) => "False".into(),
        Expr::NoneLit => "None".into(),
        Expr::Call { callee, args } => {
            let args: Vec<String> = args.iter().map(|a| print_prec(a, 0)).collect();
            format!("{}({})", print_prec(callee, 7), args.join(", "))
        }
        Expr::Attribute { value, attr } => {
            format!("{}.{attr}", print_prec(value, 7))
        }
        Expr::Index { value, index } => {
            format!("{}[{}]", print_prec(value, 7), print_prec(index, 0))
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
            let text = format!(
                "{} {} {}",
                print_prec(lhs, lmin),
                op.symbol(),
                print_prec(rhs, rmin)
            );
            if prec < min_prec {
                format!("({text})")
            } else {
                text
            }
        }
        Expr::Unary { op, operand } => {
            let text = match op {
                UnaryOp::Neg => format!("-{}", print_prec(operand, 7)),
                UnaryOp::Not => format!("not {}", print_prec(operand, 3)),
            };
            // `not` sits between comparisons and `and`.
            let prec = match op {
                UnaryOp::Neg => 7,
                UnaryOp::Not => 2,
            };
            if prec < min_prec {
                format!("({text})")
            } else {
                text
            }
        }
        Expr::List(items) => {
            let items: Vec<String> = items.iter().map(|i| print_prec(i, 0)).collect();
            format!("[{}]", items.join(", "))
        }
        Expr::Dict(pairs) => {
            let pairs: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", print_prec(k, 0), print_prec(v, 0)))
                .collect();
            format!("{{{}}}", pairs.join(", "))
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('\'');
    for c in s.chars() {
        match c {
            '\'' => out.push_str("\\'"),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('\'');
    out
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
        ] {
            round_trip(src);
        }
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
