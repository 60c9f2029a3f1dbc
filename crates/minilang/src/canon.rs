//! Alpha-renaming canonicalization.
//!
//! Attackers routinely re-release the same malware with renamed
//! identifiers; the paper's similarity pipeline must still group such
//! packages. Canonicalization rewrites every *locally defined* identifier
//! to a positional name (`v0`, `v1`, …, `f0` for functions) while leaving
//! imported module names and attribute names intact — those capture the
//! *behaviour* (which APIs the code touches) and must survive.
//!
//! The rule is written once, as a [`RenameTable`] computed in one scan of
//! a module. [`canonicalize`] rewrites a copy of the module through it;
//! the embedder reads canonical names straight from it and never builds
//! the canonical module.

use crate::ast::{Expr, Module, Stmt};
use std::collections::HashMap;

/// Produces an alpha-renamed copy of `module`.
///
/// Identifiers introduced by assignment targets, `for` variables,
/// function names and parameters are renamed in first-occurrence order.
/// Imported names (both `import x` aliases and `from m import n`) keep a
/// canonical *positional* name too, but the *module path* is preserved,
/// so `import requests` and `import requests as r` canonicalize alike.
///
/// # Examples
///
/// ```
/// use minilang::{parse, canon::canonicalize, printer::print_module};
///
/// let a = canonicalize(&parse("secret = os.getenv('K')\nsend(secret)\n")?);
/// let b = canonicalize(&parse("loot = os.getenv('K')\nsend(loot)\n")?);
/// assert_eq!(print_module(&a), print_module(&b));
/// # Ok::<(), minilang::ParseErr>(())
/// ```
pub fn canonicalize(module: &Module) -> Module {
    let names = RenameTable::of(module);
    Module::new(module.body.iter().map(|s| names.rewrite_stmt(s)).collect())
}

/// The renaming [`canonicalize`] applies to one module: each name the
/// module binds, mapped to its canonical name.
///
/// Keys borrow the module. The map keeps the standard library's
/// randomly keyed hasher, because the names come from untrusted code.
///
/// # Examples
///
/// ```
/// use minilang::{parse, canon::RenameTable};
///
/// let module = parse("import os.path as p\nkey = p.join(x)\n")?;
/// let names = RenameTable::of(&module);
/// assert_eq!(names.canonical("p"), "m_os_path");
/// assert_eq!(names.canonical("key"), "v0");
/// assert_eq!(names.canonical("x"), "x"); // free names stay as written
/// # Ok::<(), minilang::ParseErr>(())
/// ```
#[derive(Debug)]
pub struct RenameTable<'m> {
    names: HashMap<&'m str, String>,
    var_count: usize,
    fn_count: usize,
}

impl<'m> RenameTable<'m> {
    /// Scans `module` once. The whole module is scanned before any name
    /// is read, so references before a definition (forward function
    /// calls) rename consistently.
    pub fn of(module: &'m Module) -> Self {
        let mut table = RenameTable {
            names: HashMap::new(),
            var_count: 0,
            fn_count: 0,
        };
        for stmt in &module.body {
            table.scan_stmt(stmt);
        }
        table
    }

    /// The canonical spelling of `name`: its renaming if the module
    /// binds it, else `name` as written.
    pub fn canonical<'a>(&'a self, name: &'a str) -> &'a str {
        self.names.get(name).map_or(name, String::as_str)
    }

    fn define_var(&mut self, name: &'m str) {
        if !self.names.contains_key(name) {
            let canon = format!("v{}", self.var_count);
            self.var_count += 1;
            self.names.insert(name, canon);
        }
    }

    fn define_fn(&mut self, name: &'m str) {
        if !self.names.contains_key(name) {
            let canon = format!("f{}", self.fn_count);
            self.fn_count += 1;
            self.names.insert(name, canon);
        }
    }

    fn rename(&self, name: &str) -> String {
        self.canonical(name).to_owned()
    }

    fn scan_stmt(&mut self, stmt: &'m Stmt) {
        match stmt {
            Stmt::Import { module, alias } => {
                let local = alias
                    .as_deref()
                    .unwrap_or_else(|| module.split('.').next().unwrap_or(module));
                // Imported module handles keep their module identity: the
                // canonical name is derived from the *module path*, not
                // the alias, so aliasing does not defeat similarity.
                let canon = format!("m_{}", module.replace('.', "_"));
                self.names.insert(local, canon);
            }
            Stmt::FromImport {
                module,
                name,
                alias,
            } => {
                let local = alias.as_deref().unwrap_or(name);
                let canon = format!("m_{}_{}", module.replace('.', "_"), name);
                self.names.insert(local, canon);
            }
            Stmt::Assign { target, .. } => {
                if let Expr::Name(name) = target {
                    self.define_var(name);
                }
            }
            Stmt::FunctionDef { name, params, body } => {
                self.define_fn(name);
                for p in params {
                    self.define_var(p);
                }
                for s in body {
                    self.scan_stmt(s);
                }
            }
            Stmt::If { body, orelse, .. } => {
                for s in body.iter().chain(orelse) {
                    self.scan_stmt(s);
                }
            }
            Stmt::For { var, body, .. } => {
                self.define_var(var);
                for s in body {
                    self.scan_stmt(s);
                }
            }
            Stmt::While { body, .. } => {
                for s in body {
                    self.scan_stmt(s);
                }
            }
            Stmt::Try { body, handler } => {
                for s in body.iter().chain(handler) {
                    self.scan_stmt(s);
                }
            }
            Stmt::Expr(_) | Stmt::Return(_) | Stmt::Raise(_) | Stmt::Pass => {}
        }
    }

    fn rewrite_stmt(&self, stmt: &Stmt) -> Stmt {
        match stmt {
            Stmt::Import { module, alias } => Stmt::Import {
                module: module.clone(),
                alias: alias.as_ref().map(|a| self.rename(a)).or_else(|| {
                    // Force the canonical alias even for plain imports so
                    // `import requests` == `import requests as r`.
                    let local = module.split('.').next().unwrap_or(module);
                    Some(self.rename(local))
                }),
            },
            Stmt::FromImport {
                module,
                name,
                alias,
            } => Stmt::FromImport {
                module: module.clone(),
                name: name.clone(),
                alias: Some(self.rename(alias.as_deref().unwrap_or(name))),
            },
            Stmt::Assign { target, value } => Stmt::Assign {
                target: self.rewrite_expr(target),
                value: self.rewrite_expr(value),
            },
            Stmt::Expr(e) => Stmt::Expr(self.rewrite_expr(e)),
            Stmt::FunctionDef { name, params, body } => Stmt::FunctionDef {
                name: self.rename(name),
                params: params.iter().map(|p| self.rename(p)).collect(),
                body: body.iter().map(|s| self.rewrite_stmt(s)).collect(),
            },
            Stmt::If { cond, body, orelse } => Stmt::If {
                cond: self.rewrite_expr(cond),
                body: body.iter().map(|s| self.rewrite_stmt(s)).collect(),
                orelse: orelse.iter().map(|s| self.rewrite_stmt(s)).collect(),
            },
            Stmt::For { var, iter, body } => Stmt::For {
                var: self.rename(var),
                iter: self.rewrite_expr(iter),
                body: body.iter().map(|s| self.rewrite_stmt(s)).collect(),
            },
            Stmt::While { cond, body } => Stmt::While {
                cond: self.rewrite_expr(cond),
                body: body.iter().map(|s| self.rewrite_stmt(s)).collect(),
            },
            Stmt::Try { body, handler } => Stmt::Try {
                body: body.iter().map(|s| self.rewrite_stmt(s)).collect(),
                handler: handler.iter().map(|s| self.rewrite_stmt(s)).collect(),
            },
            Stmt::Return(v) => Stmt::Return(v.as_ref().map(|e| self.rewrite_expr(e))),
            Stmt::Raise(e) => Stmt::Raise(self.rewrite_expr(e)),
            Stmt::Pass => Stmt::Pass,
        }
    }

    fn rewrite_expr(&self, expr: &Expr) -> Expr {
        match expr {
            Expr::Name(n) => Expr::Name(self.rename(n)),
            Expr::Str(_) | Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::NoneLit => {
                expr.clone()
            }
            Expr::Call { callee, args } => Expr::Call {
                callee: Box::new(self.rewrite_expr(callee)),
                args: args.iter().map(|a| self.rewrite_expr(a)).collect(),
            },
            Expr::Attribute { value, attr } => Expr::Attribute {
                value: Box::new(self.rewrite_expr(value)),
                attr: attr.clone(),
            },
            Expr::Index { value, index } => Expr::Index {
                value: Box::new(self.rewrite_expr(value)),
                index: Box::new(self.rewrite_expr(index)),
            },
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_expr(lhs)),
                rhs: Box::new(self.rewrite_expr(rhs)),
            },
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Box::new(self.rewrite_expr(operand)),
            },
            Expr::List(items) => Expr::List(items.iter().map(|i| self.rewrite_expr(i)).collect()),
            Expr::Dict(pairs) => Expr::Dict(
                pairs
                    .iter()
                    .map(|(k, v)| (self.rewrite_expr(k), self.rewrite_expr(v)))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::printer::print_module;

    fn canon_src(src: &str) -> String {
        print_module(&canonicalize(&parse(src).unwrap()))
    }

    #[test]
    fn renamed_variables_canonicalize_identically() {
        let a = canon_src("token = env('AWS')\nupload(token)\n");
        let b = canon_src("stolen = env('AWS')\nupload(stolen)\n");
        assert_eq!(a, b);
    }

    #[test]
    fn different_structure_stays_different() {
        let a = canon_src("x = 1\n");
        let b = canon_src("x = f(1)\n");
        assert_ne!(a, b);
    }

    #[test]
    fn import_alias_is_normalized() {
        let a = canon_src("import requests\nrequests.post(u)\n");
        let b = canon_src("import requests as r\nr.post(u)\n");
        assert_eq!(a, b);
    }

    #[test]
    fn from_import_alias_is_normalized() {
        let a = canon_src("from subprocess import run\nrun(c)\n");
        let b = canon_src("from subprocess import run as go\ngo(c)\n");
        assert_eq!(a, b);
    }

    #[test]
    fn module_path_is_preserved() {
        // The *behavioural* signal — which module is imported — survives.
        let a = canon_src("import requests\n");
        let b = canon_src("import socket\n");
        assert_ne!(a, b);
        assert!(a.contains("requests"));
    }

    #[test]
    fn attribute_names_survive() {
        let out = canon_src("h = hashlib.sha256(data)\n");
        assert!(out.contains(".sha256("), "{out}");
    }

    #[test]
    fn function_names_and_params_rename_positionally() {
        let a = canon_src("def exfil(data):\n    send(data)\nexfil(x)\n");
        let b = canon_src("def leak(blob):\n    send(blob)\nleak(x)\n");
        assert_eq!(a, b);
    }

    #[test]
    fn forward_references_rename_consistently() {
        let src = "run()\n\ndef run():\n    pass\n";
        let out = canon_src(src);
        // the call and the def must share a name
        let call_line = out.lines().next().unwrap();
        assert!(call_line.starts_with("f0("), "{out}");
        assert!(out.contains("def f0()"), "{out}");
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let src = "import os\n\ndef go(a):\n    k = os.getenv(a)\n    return k\n";
        let once = canonicalize(&parse(src).unwrap());
        let twice = canonicalize(&once);
        assert_eq!(print_module(&once), print_module(&twice));
    }

    #[test]
    fn canonical_output_reparses() {
        let src = "import os\nx = os.environ['HOME']\nfor i in items:\n    go(i, x)\n";
        let out = canon_src(src);
        assert!(parse(&out).is_ok(), "canonical output must be valid: {out}");
    }
}
