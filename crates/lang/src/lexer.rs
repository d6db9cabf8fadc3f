//! Tokenizer for the `.jir` surface syntax.

use std::sync::Arc;

use crate::error::{LangError, Location};
use crate::symbols::{Sym, Symbols};

/// A lexical token kind: a keyword (`Kw*`), an identifier, a punctuation
/// mark, or the end of input. [`TokenKind::describe`] spells each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    KwClass,
    KwField,
    KwMethod,
    KwStatic,
    KwNew,
    KwReturn,
    KwThrow,
    KwCatch,
    KwEntry,
    /// An identifier (`[A-Za-z_$][A-Za-z0-9_$]*`), interned.
    Ident(Sym),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Eq,
    Semi,
    Comma,
    Colon,
    Dot,
    Eof,
}

impl TokenKind {
    /// A short display form used in parse-error messages; identifiers are
    /// spelled out from `symbols`.
    #[must_use]
    pub fn describe(self, symbols: &Symbols) -> String {
        let fixed = match self {
            TokenKind::Ident(s) => return format!("identifier `{}`", symbols.name(s)),
            TokenKind::KwClass => "`class`",
            TokenKind::KwField => "`field`",
            TokenKind::KwMethod => "`method`",
            TokenKind::KwStatic => "`static`",
            TokenKind::KwNew => "`new`",
            TokenKind::KwReturn => "`return`",
            TokenKind::KwThrow => "`throw`",
            TokenKind::KwCatch => "`catch`",
            TokenKind::KwEntry => "`entry`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::Eq => "`=`",
            TokenKind::Semi => "`;`",
            TokenKind::Comma => "`,`",
            TokenKind::Colon => "`:`",
            TokenKind::Dot => "`.`",
            TokenKind::Eof => "end of input",
        };
        fixed.to_owned()
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// Where it starts.
    pub location: Location,
}

/// A lexed source: its tokens, ending in [`TokenKind::Eof`], and the table
/// their identifiers are interned in (shared with the parsed module).
#[derive(Debug, Clone, Default)]
pub struct Tokens {
    /// The tokens in source order.
    pub tokens: Vec<Token>,
    /// The identifiers the tokens refer to.
    pub symbols: Arc<Symbols>,
}

impl std::ops::Deref for Tokens {
    type Target = [Token];

    fn deref(&self) -> &[Token] {
        &self.tokens
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'$'
}

/// Tokenizes `source`. `//` line comments and `/* */` block comments are
/// skipped. Columns count bytes from 1.
///
/// # Errors
///
/// Returns [`LangError::Lex`] on an unexpected character or unterminated
/// block comment.
pub fn lex(source: &str) -> Result<Tokens, LangError> {
    let bytes = source.as_bytes();
    let mut symbols = Symbols::default();
    // About one token per four bytes of typical source.
    let mut tokens = Vec::with_capacity(bytes.len() / 4);
    let mut i = 0usize;
    let mut line = 1u32;
    let mut line_start = 0usize;
    let at = |line, i: usize, line_start: usize| Location::new(line, (i - line_start + 1) as u32);

    while i < bytes.len() {
        let location = at(line, i, line_start);
        let kind = match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
                line_start = i;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                i += bytes[i..].iter().take_while(|&&b| b != b'\n').count();
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let Some(len) = source[i + 2..].find("*/") else {
                    return Err(LangError::Lex {
                        location,
                        message: "unterminated block comment".into(),
                    });
                };
                let comment = &bytes[i..i + 2 + len + 2];
                if let Some(last) = comment.iter().rposition(|&b| b == b'\n') {
                    line += comment.iter().filter(|&&b| b == b'\n').count() as u32;
                    line_start = i + last + 1;
                }
                i += comment.len();
                continue;
            }
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'=' => TokenKind::Eq,
            b';' => TokenKind::Semi,
            b',' => TokenKind::Comma,
            b':' => TokenKind::Colon,
            b'.' => TokenKind::Dot,
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                i += bytes[i..].iter().take_while(|&&b| is_ident_byte(b)).count();
                let kind = match &source[start..i] {
                    "class" => TokenKind::KwClass,
                    "field" => TokenKind::KwField,
                    "method" => TokenKind::KwMethod,
                    "static" => TokenKind::KwStatic,
                    "new" => TokenKind::KwNew,
                    "return" => TokenKind::KwReturn,
                    "throw" => TokenKind::KwThrow,
                    "catch" => TokenKind::KwCatch,
                    "entry" => TokenKind::KwEntry,
                    word => TokenKind::Ident(symbols.intern(word)),
                };
                tokens.push(Token { kind, location });
                continue;
            }
            _ => {
                // Only ASCII is consumed outside comments, so `i` sits on
                // a character boundary.
                let c = source[i..].chars().next().expect("i < source.len()");
                return Err(LangError::Lex {
                    location,
                    message: format!("unexpected character {c:?}"),
                });
            }
        };
        tokens.push(Token { kind, location });
        i += 1;
    }
    let location = at(line, i, line_start);
    tokens.push(Token {
        kind: TokenKind::Eof,
        location,
    });
    let symbols = Arc::new(symbols);
    Ok(Tokens { tokens, symbols })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token kinds, with identifiers spelled out.
    fn kinds(src: &str) -> Vec<String> {
        let lexed = lex(src).unwrap();
        lexed
            .tokens
            .iter()
            .map(|t| match t.kind {
                TokenKind::Ident(s) => lexed.symbols.name(s).to_owned(),
                other => format!("{other:?}"),
            })
            .collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo : Bar {"),
            ["KwClass", "Foo", "Colon", "Bar", "LBrace", "Eof"]
        );
    }

    #[test]
    fn interns_each_identifier_once() {
        let lexed = lex("a b a").unwrap();
        assert_eq!(lexed.symbols.len(), 2);
        assert_eq!(lexed.tokens[0].kind, lexed.tokens[2].kind);
        assert_eq!(lexed.len(), 4);
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("x // comment\n/* multi\nline */ = y;"),
            ["x", "Eq", "y", "Semi", "Eof"]
        );
    }

    #[test]
    fn tracks_locations() {
        let toks = lex("a\n  b /* c\n */ d").unwrap().tokens;
        assert_eq!(toks[0].location, Location { line: 1, column: 1 });
        assert_eq!(toks[1].location, Location { line: 2, column: 3 });
        assert_eq!(toks[2].location, Location { line: 3, column: 5 });
        assert_eq!(toks[3].location, Location { line: 3, column: 6 });
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("a # b").unwrap_err();
        assert!(matches!(err, LangError::Lex { .. }));
        assert!(err.to_string().contains("1:3"));
    }

    #[test]
    fn non_ascii_characters_are_reported_whole() {
        let err = lex("x = y; é = x;").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lex error at 1:8: unexpected character 'é'"
        );
        // Multi-byte characters inside comments count as bytes, as before.
        let err = lex("/* ü */ ü").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lex error at 1:10: unexpected character 'ü'"
        );
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(matches!(lex("/* oops"), Err(LangError::Lex { .. })));
        assert!(matches!(lex("/*/"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn dollar_names_are_identifiers() {
        assert_eq!(kinds("$ret x$1"), ["$ret", "x$1", "Eof"]);
    }
}
