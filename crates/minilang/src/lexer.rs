//! Indentation-sensitive lexer for PyLite.
//!
//! Tokens borrow the source: an identifier is a slice of it, and a number
//! parses from its slice. Only a string literal owns its text, unescaped
//! and copied once, segment by segment between escapes. A line is walked
//! byte by byte; every token of the language is ASCII, so a `char` is
//! decoded only to name it in an error message. Besides the token list
//! and the indentation stack, lexing allocates only string-literal text
//! and error messages; the parser copies each name into the AST once.

use std::fmt;

/// A lexical token. Identifiers borrow the source.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'src> {
    /// Identifier or keyword (keywords are distinguished by the parser).
    Ident(&'src str),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal, unescaped.
    Str(String),
    /// A punctuation or operator token, e.g. `"=="`, `"("`.
    Op(&'static str),
    /// End of a logical line.
    Newline,
    /// Indentation increased.
    Indent,
    /// Indentation decreased (one per level closed).
    Dedent,
    /// End of input (emitted once, after closing dedents).
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier {s:?}"),
            Token::Int(v) => write!(f, "integer {v}"),
            Token::Float(v) => write!(f, "float {v}"),
            Token::Str(s) => write!(f, "string {s:?}"),
            Token::Op(op) => write!(f, "{op:?}"),
            Token::Newline => f.write_str("newline"),
            Token::Indent => f.write_str("indent"),
            Token::Dedent => f.write_str("dedent"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// A token plus the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken<'src> {
    /// The token.
    pub token: Token<'src>,
    /// 1-based line number.
    pub line: usize,
}

/// A lexing error.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes PyLite source.
///
/// Indentation must be spaces (tabs are rejected); each indentation level
/// must return to a previously seen column on dedent. Blank and
/// comment-only lines produce no tokens.
///
/// # Errors
///
/// Returns [`LexError`] on tab indentation, inconsistent dedents,
/// unterminated strings, an integer past `i64` or a float past `f64`,
/// or characters outside the language.
pub fn lex(source: &str) -> Result<Vec<SpannedToken<'_>>, LexError> {
    let mut tokens = Vec::new();
    let mut indents: Vec<usize> = vec![0];
    let mut line_no = 0usize;

    for raw_line in source.split('\n') {
        line_no += 1;
        let line = raw_line.strip_suffix('\r').unwrap_or(raw_line);

        // Measure indentation.
        let mut indent = 0usize;
        let bytes = line.as_bytes();
        while indent < bytes.len() && bytes[indent] == b' ' {
            indent += 1;
        }
        if indent < bytes.len() && bytes[indent] == b'\t' {
            return Err(LexError {
                line: line_no,
                message: "tab indentation is not allowed".into(),
            });
        }
        let rest = &line[indent..];
        if rest.is_empty() || rest.starts_with('#') {
            continue; // blank or comment-only line
        }

        // Emit indent / dedent tokens.
        let current = *indents.last().expect("indent stack never empty");
        if indent > current {
            indents.push(indent);
            tokens.push(SpannedToken {
                token: Token::Indent,
                line: line_no,
            });
        } else if indent < current {
            while *indents.last().expect("indent stack never empty") > indent {
                indents.pop();
                tokens.push(SpannedToken {
                    token: Token::Dedent,
                    line: line_no,
                });
            }
            if *indents.last().expect("indent stack never empty") != indent {
                return Err(LexError {
                    line: line_no,
                    message: format!("inconsistent dedent to column {indent}"),
                });
            }
        }

        lex_line(rest, line_no, &mut tokens)?;
        tokens.push(SpannedToken {
            token: Token::Newline,
            line: line_no,
        });
    }

    while indents.len() > 1 {
        indents.pop();
        tokens.push(SpannedToken {
            token: Token::Dedent,
            line: line_no,
        });
    }
    tokens.push(SpannedToken {
        token: Token::Eof,
        line: line_no,
    });
    Ok(tokens)
}

/// Lexes the tokens of one line, past its indentation. Walks bytes: every
/// token the language has is ASCII, and a UTF-8 continuation byte is never
/// one, so the cursor always rests on a char boundary. A `char` is decoded
/// only to name it in an error.
fn lex_line<'src>(
    rest: &'src str,
    line: usize,
    tokens: &mut Vec<SpannedToken<'src>>,
) -> Result<(), LexError> {
    let bytes = rest.as_bytes();
    let mut i = 0usize;
    let push = |tokens: &mut Vec<SpannedToken<'src>>, token: Token<'src>| {
        tokens.push(SpannedToken { token, line });
    };
    let error = |message: String| LexError { line, message };
    let char_at = |i: usize| rest[i..].chars().next().expect("cursor is inside the line");

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' => {
                i += 1;
            }
            b'#' => break, // trailing comment
            b'\'' | b'"' => {
                let quote = b;
                i += 1;
                // Copy the text between escapes segment by segment.
                let mut value = String::new();
                let mut segment = i;
                loop {
                    match bytes.get(i) {
                        None => return Err(error("unterminated string literal".into())),
                        Some(&c) if c == quote => {
                            value.push_str(&rest[segment..i]);
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            value.push_str(&rest[segment..i]);
                            i += 1;
                            let Some(&esc) = bytes.get(i) else {
                                return Err(error("dangling escape at end of line".into()));
                            };
                            value.push(match esc {
                                b'n' => '\n',
                                b't' => '\t',
                                b'\\' => '\\',
                                b'\'' => '\'',
                                b'"' => '"',
                                _ => return Err(error(format!("unknown escape \\{}", char_at(i)))),
                            });
                            i += 1;
                            segment = i;
                        }
                        Some(_) => i += 1,
                    }
                }
                push(tokens, Token::Str(value));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &rest[start..i];
                if is_float {
                    // A literal past `f64::MAX` parses to infinity, which
                    // has no literal to print back as.
                    let v = text
                        .parse::<f64>()
                        .ok()
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| error(format!("bad float literal {text:?}")))?;
                    push(tokens, Token::Float(v));
                } else {
                    let v = text
                        .parse()
                        .map_err(|_| error(format!("integer literal out of range: {text}")))?;
                    push(tokens, Token::Int(v));
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                push(tokens, Token::Ident(&rest[start..i]));
            }
            _ => {
                // Operators, longest first.
                let two = match (b, bytes.get(i + 1)) {
                    (b'*', Some(b'*')) => Some("**"),
                    (b'=', Some(b'=')) => Some("=="),
                    (b'!', Some(b'=')) => Some("!="),
                    (b'<', Some(b'=')) => Some("<="),
                    (b'>', Some(b'=')) => Some(">="),
                    (b'-', Some(b'>')) => Some("->"),
                    _ => None,
                };
                if let Some(op) = two {
                    push(tokens, Token::Op(op));
                    i += 2;
                } else {
                    let one = match b {
                        b'+' => Some("+"),
                        b'-' => Some("-"),
                        b'*' => Some("*"),
                        b'/' => Some("/"),
                        b'%' => Some("%"),
                        b'=' => Some("="),
                        b'<' => Some("<"),
                        b'>' => Some(">"),
                        b'(' => Some("("),
                        b')' => Some(")"),
                        b'[' => Some("["),
                        b']' => Some("]"),
                        b'{' => Some("{"),
                        b'}' => Some("}"),
                        b':' => Some(":"),
                        b',' => Some(","),
                        b'.' => Some("."),
                        _ => None,
                    };
                    if let Some(op) = one {
                        push(tokens, Token::Op(op));
                        i += 1;
                    } else {
                        return Err(error(format!("unexpected character {:?}", char_at(i))));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn simple_line() {
        assert_eq!(
            toks("x = 1"),
            vec![
                Token::Ident("x"),
                Token::Op("="),
                Token::Int(1),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(
            toks(r#"s = 'a\'b' "c\nd""#),
            vec![
                Token::Ident("s"),
                Token::Op("="),
                Token::Str("a'b".into()),
                Token::Str("c\nd".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("s = 'oops").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(
            toks("a = 3.25 + 7"),
            vec![
                Token::Ident("a"),
                Token::Op("="),
                Token::Float(3.25),
                Token::Op("+"),
                Token::Int(7),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn float_past_f64_is_a_syntax_error() {
        use crate::parser::{parse, ParseErrKind};
        let src = format!("x = 1\ny = 1{}.5\n", "0".repeat(400));
        let err = parse(&src).unwrap_err();
        assert_eq!(err.kind, ParseErrKind::Syntax, "{err}");
        assert_eq!(err.line, 2, "{err}");
        assert!(err.message.starts_with("bad float literal"), "{err}");
        // The largest finite literals still lex.
        let max = format!("{:.1}", f64::MAX);
        assert_eq!(toks(&max)[0], Token::Float(f64::MAX));
    }

    #[test]
    fn indent_dedent_pairs() {
        let src = "def f():\n    x = 1\n    if x:\n        pass\ny = 2\n";
        let ts = toks(src);
        let indents = ts.iter().filter(|t| **t == Token::Indent).count();
        let dedents = ts.iter().filter(|t| **t == Token::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2);
    }

    #[test]
    fn dangling_indent_closed_at_eof() {
        let ts = toks("if x:\n    pass");
        assert_eq!(ts.iter().filter(|t| **t == Token::Dedent).count(), 1);
        assert_eq!(ts.last(), Some(&Token::Eof));
    }

    #[test]
    fn inconsistent_dedent_is_error() {
        let err = lex("if x:\n        pass\n  y = 1\n").unwrap_err();
        assert!(err.message.contains("inconsistent dedent"), "{err}");
    }

    #[test]
    fn tab_indent_is_error() {
        assert!(lex("if x:\n\tpass\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let ts = toks("# header\n\nx = 1  # trailing\n\n# end\n");
        assert_eq!(
            ts,
            vec![
                Token::Ident("x"),
                Token::Op("="),
                Token::Int(1),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn two_char_operators() {
        let ts = toks("a == b != c <= d >= e ** f");
        let ops: Vec<_> = ts
            .iter()
            .filter_map(|t| match t {
                Token::Op(op) => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, vec!["==", "!=", "<=", ">=", "**"]);
    }

    #[test]
    fn unknown_character_is_error() {
        let err = lex("x = 1 @ 2").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn line_numbers_are_tracked() {
        let spanned = lex("x = 1\ny = 2\n").unwrap();
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[3].line, 1); // newline of line 1
        assert_eq!(spanned[4].line, 2); // `y`
    }

    #[test]
    fn crlf_is_tolerated() {
        assert_eq!(toks("x = 1\r\ny = 2\r\n"), toks("x = 1\ny = 2\n"));
    }

    #[test]
    fn non_ascii_text_in_a_string_survives_unescaping() {
        assert_eq!(
            toks("s = 'héllo\\t→ wörld'"),
            vec![
                Token::Ident("s"),
                Token::Op("="),
                Token::Str("héllo\t→ wörld".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn non_ascii_outside_a_string_is_an_error_on_its_line() {
        let err = lex("x = 1\ny = é\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "unexpected character 'é'");
    }

    #[test]
    fn backslash_at_the_end_of_a_string_line_dangles() {
        let err = lex("x = 1\ns = 'abc\\\ny = 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "dangling escape at end of line");
    }

    #[test]
    fn unknown_non_ascii_escape_names_the_char() {
        let err = lex("s = '\\é'").unwrap_err();
        assert_eq!(err.message, "unknown escape \\é");
    }

    #[test]
    fn hash_inside_a_string_is_not_a_comment() {
        assert_eq!(
            toks("s = 'a # b'  # c"),
            vec![
                Token::Ident("s"),
                Token::Op("="),
                Token::Str("a # b".into()),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn crlf_lexes_like_lf_with_blocks_strings_and_comments() {
        let lf = "def f(a):\n    # c\n    s = 'x\\n' + a  # t\n\n    return s\ny = f(1)\n";
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(lex(&crlf).unwrap(), lex(lf).unwrap());
    }

    #[test]
    fn int_then_attribute_is_not_a_float() {
        assert_eq!(
            toks("1.x"),
            vec![
                Token::Int(1),
                Token::Op("."),
                Token::Ident("x"),
                Token::Newline,
                Token::Eof
            ]
        );
    }
}
