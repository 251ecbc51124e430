//! Tokenizer for the Lilac surface syntax.
//!
//! The lexer is a straightforward hand-written scanner. It strips `//` line
//! comments and `/* */` block comments, recognizes the multi-character
//! operators used by the grammar (`:=`, `::`, `->`, `..`, `==`, `!=`, `<=`,
//! `>=`, `&&`, `||`), and tags parameter identifiers (written with a leading
//! `#`) and event identifiers (optionally written with a leading `'`, as in
//! `'G`, which Lilac treats the same as `G`).

use lilac_util::diag::{Diagnostic, LilacError, Result};
use lilac_util::intern::Symbol;
use lilac_util::span::{FileId, Span};
use std::fmt;

/// Kinds of tokens produced by the lexer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An ordinary identifier (component, instance, port, or event name).
    Ident,
    /// A parameter identifier, written `#name` in the source.
    ParamIdent,
    /// An unsigned integer literal.
    Number,
    /// A double-quoted string literal (generator tool names, extern paths).
    Str,

    // Keywords.
    /// `comp`
    Comp,
    /// `extern`
    Extern,
    /// `gen`
    Gen,
    /// `new`
    New,
    /// `let`
    Let,
    /// `bundle`
    Bundle,
    /// `for`
    For,
    /// `in`
    In,
    /// `if`
    If,
    /// `else`
    Else,
    /// `assume`
    Assume,
    /// `assert`
    Assert,
    /// `with`
    With,
    /// `where`
    Where,
    /// `some`
    Some,
    /// `interface`
    Interface,
    /// `log2`
    Log2,
    /// `exp2`
    Exp2,
    /// `const`
    Const,

    // Punctuation and operators.
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `=`
    Eq,
    /// `:=`
    ColonEq,
    /// `::`
    ColonColon,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `?`
    Question,
    /// `!`
    Bang,
    /// `&` or `&&`
    AmpAmp,
    /// `|` or `||`
    PipePipe,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TokenKind::Ident => "identifier",
            TokenKind::ParamIdent => "parameter",
            TokenKind::Number => "number",
            TokenKind::Str => "string",
            TokenKind::Comp => "`comp`",
            TokenKind::Extern => "`extern`",
            TokenKind::Gen => "`gen`",
            TokenKind::New => "`new`",
            TokenKind::Let => "`let`",
            TokenKind::Bundle => "`bundle`",
            TokenKind::For => "`for`",
            TokenKind::In => "`in`",
            TokenKind::If => "`if`",
            TokenKind::Else => "`else`",
            TokenKind::Assume => "`assume`",
            TokenKind::Assert => "`assert`",
            TokenKind::With => "`with`",
            TokenKind::Where => "`where`",
            TokenKind::Some => "`some`",
            TokenKind::Interface => "`interface`",
            TokenKind::Log2 => "`log2`",
            TokenKind::Exp2 => "`exp2`",
            TokenKind::Const => "`const`",
            TokenKind::LParen => "`(`",
            TokenKind::RParen => "`)`",
            TokenKind::LBracket => "`[`",
            TokenKind::RBracket => "`]`",
            TokenKind::LBrace => "`{`",
            TokenKind::RBrace => "`}`",
            TokenKind::Lt => "`<`",
            TokenKind::Gt => "`>`",
            TokenKind::Le => "`<=`",
            TokenKind::Ge => "`>=`",
            TokenKind::EqEq => "`==`",
            TokenKind::Ne => "`!=`",
            TokenKind::Eq => "`=`",
            TokenKind::ColonEq => "`:=`",
            TokenKind::ColonColon => "`::`",
            TokenKind::Colon => "`:`",
            TokenKind::Semi => "`;`",
            TokenKind::Comma => "`,`",
            TokenKind::Dot => "`.`",
            TokenKind::DotDot => "`..`",
            TokenKind::Arrow => "`->`",
            TokenKind::Plus => "`+`",
            TokenKind::Minus => "`-`",
            TokenKind::Star => "`*`",
            TokenKind::Slash => "`/`",
            TokenKind::Percent => "`%`",
            TokenKind::Question => "`?`",
            TokenKind::Bang => "`!`",
            TokenKind::AmpAmp => "`&`",
            TokenKind::PipePipe => "`|`",
            TokenKind::Eof => "end of file",
        };
        f.write_str(s)
    }
}

/// A token: its kind, the interned text of a name, numeric value for
/// numbers, and span.
#[derive(Clone, Copy, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Interned text of the tokens the parser reads as names: identifiers
    /// (without `'`), parameters (without `#`), strings (without quotes) and
    /// the `in` keyword, which is also a conventional port name. Every other
    /// token carries the empty symbol: its kind says all there is.
    pub text: Symbol,
    /// Value for [`TokenKind::Number`] tokens; zero otherwise.
    pub value: u64,
    /// Source span.
    pub span: Span,
}

fn keyword(s: &str) -> Option<TokenKind> {
    Some(match s {
        "comp" => TokenKind::Comp,
        "extern" => TokenKind::Extern,
        "gen" => TokenKind::Gen,
        "new" => TokenKind::New,
        "let" => TokenKind::Let,
        "bundle" => TokenKind::Bundle,
        "for" => TokenKind::For,
        "in" => TokenKind::In,
        "if" => TokenKind::If,
        "else" => TokenKind::Else,
        "assume" => TokenKind::Assume,
        "assert" => TokenKind::Assert,
        "with" => TokenKind::With,
        "where" => TokenKind::Where,
        "some" => TokenKind::Some,
        "interface" => TokenKind::Interface,
        "log2" => TokenKind::Log2,
        "exp2" => TokenKind::Exp2,
        "const" => TokenKind::Const,
        _ => return None,
    })
}

/// Tokenizes `src` (registered as `file` for spans).
///
/// # Errors
///
/// Returns an error diagnostic for unterminated strings or block comments and
/// for characters outside the Lilac alphabet.
pub fn lex(file: FileId, src: &str) -> Result<Vec<Token>> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let len = bytes.len();

    let span = |start: usize, end: usize| Span::new(file, start as u32, end as u32);
    // Interning takes the global interner's lock, so only names pay for it.
    let empty = Symbol::intern("");

    while i < len {
        let c = bytes[i] as char;
        // Whitespace.
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < len && bytes[i + 1] == b'/' {
            while i < len && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < len && bytes[i + 1] == b'*' {
            let start = i;
            i += 2;
            let mut closed = false;
            while i + 1 < len {
                if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                    i += 2;
                    closed = true;
                    break;
                }
                i += 1;
            }
            if !closed {
                return Err(LilacError::new(Diagnostic::error(
                    "unterminated block comment",
                    span(start, len),
                )));
            }
            continue;
        }

        let start = i;

        // Identifiers, parameters, events.
        if c.is_ascii_alphabetic() || c == '_' || c == '#' || c == '\'' {
            let is_param = c == '#';
            if c == '#' || c == '\'' {
                i += 1;
            }
            let id_start = i;
            while i < len && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i == id_start {
                let next = src[i..].chars().next().map_or(0, char::len_utf8);
                return Err(LilacError::new(Diagnostic::error(
                    format!("expected identifier after `{c}`"),
                    span(start, i + next),
                )));
            }
            let text = &src[id_start..i];
            let kind = if is_param {
                TokenKind::ParamIdent
            } else {
                keyword(text).unwrap_or(TokenKind::Ident)
            };
            let text = match kind {
                TokenKind::Ident | TokenKind::ParamIdent | TokenKind::In => Symbol::intern(text),
                _ => empty,
            };
            tokens.push(Token { kind, text, value: 0, span: span(start, i) });
            continue;
        }

        // Numbers.
        if c.is_ascii_digit() {
            while i < len && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let text = &src[start..i];
            let value: u64 = text.parse().map_err(|_| {
                LilacError::new(Diagnostic::error(
                    format!("integer literal `{text}` is too large"),
                    span(start, i),
                ))
            })?;
            tokens.push(Token {
                kind: TokenKind::Number,
                text: empty,
                value,
                span: span(start, i),
            });
            continue;
        }

        // Strings.
        if c == '"' {
            i += 1;
            let str_start = i;
            while i < len && bytes[i] != b'"' {
                i += 1;
            }
            if i >= len {
                return Err(LilacError::new(Diagnostic::error(
                    "unterminated string literal",
                    span(start, len),
                )));
            }
            let text = &src[str_start..i];
            i += 1;
            tokens.push(Token {
                kind: TokenKind::Str,
                text: Symbol::intern(text),
                value: 0,
                span: span(start, i),
            });
            continue;
        }

        // Operators and punctuation. The two-character lookahead compares
        // bytes, so it never splits a multi-byte character.
        let (kind, width) = match bytes.get(i..i + 2).unwrap_or_default() {
            b":=" => (TokenKind::ColonEq, 2),
            b"::" => (TokenKind::ColonColon, 2),
            b"->" => (TokenKind::Arrow, 2),
            b".." => (TokenKind::DotDot, 2),
            b"==" => (TokenKind::EqEq, 2),
            b"!=" => (TokenKind::Ne, 2),
            b"<=" => (TokenKind::Le, 2),
            b">=" => (TokenKind::Ge, 2),
            b"&&" => (TokenKind::AmpAmp, 2),
            b"||" => (TokenKind::PipePipe, 2),
            _ => match c {
                '(' => (TokenKind::LParen, 1),
                ')' => (TokenKind::RParen, 1),
                '[' => (TokenKind::LBracket, 1),
                ']' => (TokenKind::RBracket, 1),
                '{' => (TokenKind::LBrace, 1),
                '}' => (TokenKind::RBrace, 1),
                '<' => (TokenKind::Lt, 1),
                '>' => (TokenKind::Gt, 1),
                '=' => (TokenKind::Eq, 1),
                ':' => (TokenKind::Colon, 1),
                ';' => (TokenKind::Semi, 1),
                ',' => (TokenKind::Comma, 1),
                '.' => (TokenKind::Dot, 1),
                '+' => (TokenKind::Plus, 1),
                '-' => (TokenKind::Minus, 1),
                '*' => (TokenKind::Star, 1),
                '/' => (TokenKind::Slash, 1),
                '%' => (TokenKind::Percent, 1),
                '?' => (TokenKind::Question, 1),
                '!' => (TokenKind::Bang, 1),
                '&' => (TokenKind::AmpAmp, 1),
                '|' => (TokenKind::PipePipe, 1),
                _ => {
                    // Every token starts on a char boundary; decode the whole
                    // character so the diagnostic names it and its span ends
                    // on a boundary too.
                    let other = src[start..].chars().next().unwrap_or(c);
                    return Err(LilacError::new(Diagnostic::error(
                        format!("unexpected character `{other}`"),
                        span(start, start + other.len_utf8()),
                    )));
                }
            },
        };
        i += width;
        tokens.push(Token { kind, text: empty, value: 0, span: span(start, i) });
    }

    tokens.push(Token { kind: TokenKind::Eof, text: empty, value: 0, span: span(len, len) });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(FileId(0), src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_signature_fragment() {
        let ks = kinds("comp FPU[#W]<G:1>(l: [G, G+1] #W) -> (o: [G, G+1] #W)");
        assert_eq!(ks[0], TokenKind::Comp);
        assert_eq!(ks[1], TokenKind::Ident);
        assert_eq!(ks[2], TokenKind::LBracket);
        assert_eq!(ks[3], TokenKind::ParamIdent);
        assert!(ks.contains(&TokenKind::Arrow));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn lex_multichar_operators() {
        let ks = kinds(":= :: -> .. == != <= >= && ||");
        assert_eq!(
            &ks[..10],
            &[
                TokenKind::ColonEq,
                TokenKind::ColonColon,
                TokenKind::Arrow,
                TokenKind::DotDot,
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::AmpAmp,
                TokenKind::PipePipe,
            ]
        );
    }

    #[test]
    fn lex_comments() {
        let ks = kinds("comp // a line comment\n /* block \n comment */ FPU");
        assert_eq!(ks, vec![TokenKind::Comp, TokenKind::Ident, TokenKind::Eof]);
    }

    #[test]
    fn lex_event_tick() {
        // 'G is the same identifier as G.
        let toks = lex(FileId(0), "'G G").unwrap();
        assert_eq!(toks[0].text, toks[1].text);
        assert_eq!(toks[0].kind, TokenKind::Ident);
    }

    #[test]
    fn lex_numbers_and_strings() {
        let toks = lex(FileId(0), r#"42 "flopoco""#).unwrap();
        assert_eq!(toks[0].kind, TokenKind::Number);
        assert_eq!(toks[0].value, 42);
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[1].text.as_str(), "flopoco");
    }

    #[test]
    fn only_names_carry_text() {
        let toks = lex(FileId(0), "in for 42 := ( x #P \"s\"").unwrap();
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["in", "", "", "", "", "x", "P", "s", ""]);
        assert_eq!(toks[2].value, 42);
    }

    #[test]
    fn lex_param_strips_hash() {
        let toks = lex(FileId(0), "#Max").unwrap();
        assert_eq!(toks[0].kind, TokenKind::ParamIdent);
        assert_eq!(toks[0].text.as_str(), "Max");
    }

    #[test]
    fn lex_errors() {
        assert!(lex(FileId(0), "\"unterminated").is_err());
        assert!(lex(FileId(0), "/* unterminated").is_err());
        assert!(lex(FileId(0), "comp @").is_err());
        assert!(lex(FileId(0), "# ").is_err());
    }

    #[test]
    fn keywords_recognized() {
        let ks = kinds("comp extern gen new let bundle for in if else assume assert with where some interface log2 exp2 const");
        assert_eq!(
            &ks[..19],
            &[
                TokenKind::Comp,
                TokenKind::Extern,
                TokenKind::Gen,
                TokenKind::New,
                TokenKind::Let,
                TokenKind::Bundle,
                TokenKind::For,
                TokenKind::In,
                TokenKind::If,
                TokenKind::Else,
                TokenKind::Assume,
                TokenKind::Assert,
                TokenKind::With,
                TokenKind::Where,
                TokenKind::Some,
                TokenKind::Interface,
                TokenKind::Log2,
                TokenKind::Exp2,
                TokenKind::Const,
            ]
        );
    }
}
