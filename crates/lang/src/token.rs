//! Tokens and the FEnerJ lexer.

use crate::error::{ParseError, Span};
use std::fmt;

/// A lexical token of FEnerJ.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    // Literals and identifiers.
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Identifier (variable, field, method or class name).
    Ident(String),

    // Keywords.
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `new`
    New,
    /// `this`
    This,
    /// `null`
    Null,
    /// `if`
    If,
    /// `else`
    Else,
    /// `let`
    Let,
    /// `in`
    In,
    /// `endorse`
    Endorse,
    /// `while`
    While,
    /// `main`
    Main,
    /// `int`
    Int,
    /// `float`
    Float,
    /// `precise`
    Precise,
    /// `approx`
    Approx,
    /// `top`
    Top,
    /// `context`
    Context,

    // Punctuation and operators.
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `:=`
    Assign,
    /// `=`
    Eq,
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
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::IntLit(v) => write!(f, "{v}"),
            Token::FloatLit(v) => write!(f, "{v}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Class => write!(f, "class"),
            Token::Extends => write!(f, "extends"),
            Token::New => write!(f, "new"),
            Token::This => write!(f, "this"),
            Token::Null => write!(f, "null"),
            Token::If => write!(f, "if"),
            Token::Else => write!(f, "else"),
            Token::Let => write!(f, "let"),
            Token::In => write!(f, "in"),
            Token::Endorse => write!(f, "endorse"),
            Token::While => write!(f, "while"),
            Token::Main => write!(f, "main"),
            Token::Int => write!(f, "int"),
            Token::Float => write!(f, "float"),
            Token::Precise => write!(f, "precise"),
            Token::Approx => write!(f, "approx"),
            Token::Top => write!(f, "top"),
            Token::Context => write!(f, "context"),
            Token::LBracket => write!(f, "["),
            Token::RBracket => write!(f, "]"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Semi => write!(f, ";"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Assign => write!(f, ":="),
            Token::Eq => write!(f, "="),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::EqEq => write!(f, "=="),
            Token::NotEq => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spanned {
    /// The token.
    pub token: Token,
    /// Where it came from.
    pub span: Span,
}

/// Tokenizes FEnerJ source text.
///
/// Line comments start with `//`; whitespace is insignificant.
///
/// # Errors
///
/// Returns a [`ParseError`] on unrecognized characters or malformed
/// numeric literals.
pub(crate) fn lex(source: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '[' => push(&mut tokens, Token::LBracket, start, &mut i),
            ']' => push(&mut tokens, Token::RBracket, start, &mut i),
            '{' => push(&mut tokens, Token::LBrace, start, &mut i),
            '}' => push(&mut tokens, Token::RBrace, start, &mut i),
            '(' => push(&mut tokens, Token::LParen, start, &mut i),
            ')' => push(&mut tokens, Token::RParen, start, &mut i),
            ';' => push(&mut tokens, Token::Semi, start, &mut i),
            ',' => push(&mut tokens, Token::Comma, start, &mut i),
            '.' => push(&mut tokens, Token::Dot, start, &mut i),
            '+' => push(&mut tokens, Token::Plus, start, &mut i),
            '-' => push(&mut tokens, Token::Minus, start, &mut i),
            '*' => push(&mut tokens, Token::Star, start, &mut i),
            '/' => push(&mut tokens, Token::Slash, start, &mut i),
            '%' => push(&mut tokens, Token::Percent, start, &mut i),
            ':' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Assign, span: Span::new(start, i) });
                } else {
                    return Err(ParseError::new(
                        Span::new(start, start + 1),
                        "expected ':=' after ':'",
                    ));
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::EqEq, span: Span::new(start, i) });
                } else {
                    push(&mut tokens, Token::Eq, start, &mut i);
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::NotEq, span: Span::new(start, i) });
                } else {
                    return Err(ParseError::new(
                        Span::new(start, start + 1),
                        "expected '!=' after '!'",
                    ));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Le, span: Span::new(start, i) });
                } else {
                    push(&mut tokens, Token::Lt, start, &mut i);
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    tokens.push(Spanned { token: Token::Ge, span: Span::new(start, i) });
                } else {
                    push(&mut tokens, Token::Gt, start, &mut i);
                }
            }
            '0'..='9' => {
                let mut j = i;
                let mut is_float = false;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len()
                    && bytes[j] == b'.'
                    && j + 1 < bytes.len()
                    && bytes[j + 1].is_ascii_digit()
                {
                    is_float = true;
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_digit() {
                        j += 1;
                    }
                }
                let text = &source[i..j];
                let span = Span::new(i, j);
                let token = if is_float {
                    Token::FloatLit(
                        text.parse()
                            .map_err(|_| ParseError::new(span, "malformed float literal"))?,
                    )
                } else {
                    Token::IntLit(
                        text.parse()
                            .map_err(|_| ParseError::new(span, "integer literal out of range"))?,
                    )
                };
                tokens.push(Spanned { token, span });
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                let word = &source[i..j];
                let token = match word {
                    "class" => Token::Class,
                    "extends" => Token::Extends,
                    "new" => Token::New,
                    "this" => Token::This,
                    "null" => Token::Null,
                    "if" => Token::If,
                    "else" => Token::Else,
                    "let" => Token::Let,
                    "in" => Token::In,
                    "endorse" => Token::Endorse,
                    "while" => Token::While,
                    "main" => Token::Main,
                    "int" => Token::Int,
                    "float" => Token::Float,
                    "precise" => Token::Precise,
                    "approx" => Token::Approx,
                    "top" => Token::Top,
                    "context" => Token::Context,
                    _ => Token::Ident(word.to_owned()),
                };
                tokens.push(Spanned { token, span: Span::new(i, j) });
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    Span::new(start, start + 1),
                    format!("unexpected character {other:?}"),
                ));
            }
        }
    }
    tokens.push(Spanned { token: Token::Eof, span: Span::new(bytes.len(), bytes.len()) });
    Ok(tokens)
}

fn push(tokens: &mut Vec<Spanned>, token: Token, start: usize, i: &mut usize) {
    *i += 1;
    tokens.push(Spanned { token, span: Span::new(start, *i) });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lexes_keywords_and_identifiers() {
        assert_eq!(
            kinds("class Foo extends Bar"),
            vec![
                Token::Class,
                Token::Ident("Foo".into()),
                Token::Extends,
                Token::Ident("Bar".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn lexes_qualifiers() {
        assert_eq!(
            kinds("precise approx top context"),
            vec![Token::Precise, Token::Approx, Token::Top, Token::Context, Token::Eof]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42"), vec![Token::IntLit(42), Token::Eof]);
        assert_eq!(kinds("3.25"), vec![Token::FloatLit(3.25), Token::Eof]);
        // A dot not followed by a digit is member access, not a float.
        assert_eq!(
            kinds("4.f"),
            vec![Token::IntLit(4), Token::Dot, Token::Ident("f".into()), Token::Eof]
        );
    }

    #[test]
    fn lexes_operators() {
        assert_eq!(
            kinds("a := b == c <= 1 != 2 >= 3 < >"),
            vec![
                Token::Ident("a".into()),
                Token::Assign,
                Token::Ident("b".into()),
                Token::EqEq,
                Token::Ident("c".into()),
                Token::Le,
                Token::IntLit(1),
                Token::NotEq,
                Token::IntLit(2),
                Token::Ge,
                Token::IntLit(3),
                Token::Lt,
                Token::Gt,
                Token::Eof
            ]
        );
    }

    #[test]
    fn skips_comments_and_whitespace() {
        assert_eq!(
            kinds("1 // a comment\n 2"),
            vec![Token::IntLit(1), Token::IntLit(2), Token::Eof]
        );
    }

    #[test]
    fn spans_point_at_source() {
        let toks = lex("let x").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 3));
        assert_eq!(toks[1].span, Span::new(4, 5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("let # x").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("a : b").is_err());
    }
}
