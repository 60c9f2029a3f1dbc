//! A mini interpreted-language substrate ("PyLite").
//!
//! The packages in the paper's corpus are interpreted code (Python /
//! JavaScript / Ruby), and two MALGRAPH relations depend on *looking at
//! that code*: the **similar** edge (AST → embedding → clustering, paper
//! §III-A) and the **CC changing operation** (source-code diff between
//! consecutive release attempts, §IV-E, "around 3.7 lines"). This crate
//! provides everything the reproduction needs to make those code paths
//! real rather than mocked:
//!
//! * [`lexer`] / [`parser`] — an indentation-sensitive Python-like
//!   language with functions, control flow, imports, calls, literals;
//! * [`ast`] — the abstract syntax tree, the unit the paper extracts with
//!   the Packj SBOM tool;
//! * [`printer`] — a canonical pretty-printer (`parse ∘ print = id`);
//! * [`canon`] — alpha-renaming canonicalization so the embedding is
//!   robust to the identifier-renaming mutations attackers apply;
//! * [`diff`] — line diff between two programs, driving CC detection;
//! * [`lower`] — the compact, slot-resolved form of a module that the
//!   interpreter executes and the static rules read;
//! * [`interp`] — a sandboxed, effect-tracing interpreter (the
//!   dynamic-analysis substrate in the style of OSSF package-analysis);
//! * [`gen`] — a generator of *malicious package code*: nine behaviour
//!   templates (credential exfiltration, download-and-execute, reverse
//!   shell, clipboard hijacking, …) composed with benign filler, plus the
//!   small mutation operators attackers use between release attempts.
//!
//! # Examples
//!
//! ```
//! use minilang::{parse, printer::print_module};
//!
//! let src = "import os\n\ndef run():\n    x = os.getenv('AWS_KEY')\n    return x\n";
//! let module = parse(src)?;
//! assert_eq!(print_module(&module), src);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod canon;
pub mod diff;
pub mod gen;
pub mod interp;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;

pub use ast::{Expr, Module, Stmt};
pub use diff::line_diff;
pub use parser::{parse, ParseErr, ParseErrKind};
