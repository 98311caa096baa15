//! SQL tokenizer. Tokens borrow the statement text: a word, number, quoted
//! identifier or literal is a slice of the input, and only a literal with a
//! `''` escape owns its (unescaped) text. The parser pulls tokens from a
//! [`Lexer`] one at a time, takes each by value and copies a name once,
//! when it enters the AST.

use std::borrow::Cow;
use std::fmt;

/// A lexical token of the statement text `'a`.
#[derive(Clone, PartialEq, Debug)]
pub enum Token<'a> {
    /// Unquoted identifier or keyword, as written (keywords match
    /// case-insensitively).
    Word(&'a str),
    /// `"quoted identifier"` (case preserved, no keyword meaning).
    QuotedIdent(&'a str),
    /// `'string literal'`, borrowed unless it holds a `''` escape.
    String(Cow<'a, str>),
    Number(&'a str),
    Symbol(char),
    /// `<=`, `>=`, `<>`, `!=`, `::`
    Op(&'static str),
}

impl Token<'_> {
    /// Keyword check (case-insensitive, unquoted words only).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Word(w) if w.eq_ignore_ascii_case(kw))
    }

    pub fn ident(&self) -> Option<&str> {
        match self {
            Token::Word(w) | Token::QuotedIdent(w) => Some(w),
            _ => None,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(w) => write!(f, "{w}"),
            Token::QuotedIdent(w) => write!(f, "\"{w}\""),
            Token::String(s) => write!(f, "'{s}'"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Symbol(c) => write!(f, "{c}"),
            Token::Op(o) => write!(f, "{o}"),
        }
    }
}

/// The text from `open + 1` up to the next `close` byte, and the index just
/// past that byte; `None` if the input ends first.
fn quoted(b: &[u8], open: usize, close: u8) -> Option<(usize, usize)> {
    let len = b[open + 1..].iter().position(|&c| c == close)?;
    Some((open + 1 + len, open + len + 2))
}

/// The tokens of a statement text, lexed one at a time as they are asked
/// for. A bad character is an error, after which the lexer yields nothing.
pub struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    pub fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    /// The end of the run of bytes from `i` on that `more` accepts.
    fn run(&self, mut i: usize, more: fn(u8) -> bool) -> usize {
        let b = self.input.as_bytes();
        while i < b.len() && more(b[i]) {
            i += 1;
        }
        i
    }

    /// The token at `i` (past any space or comment) and where it ends.
    fn token_at(&self, mut i: usize) -> Result<Option<(Token<'a>, usize)>, String> {
        let (input, b) = (self.input, self.input.as_bytes());
        let number = |c: u8| c.is_ascii_digit() || c == b'.';
        while i < b.len() {
            let c = b[i] as char;
            let token = match c {
                ' ' | '\t' | '\n' | '\r' => {
                    i += 1;
                    continue;
                }
                '-' if b.get(i + 1) == Some(&b'-') => {
                    i = self.run(i, |c| c != b'\n');
                    continue;
                }
                '\'' => {
                    // A `''` inside the literal is one quote: the literal is
                    // the pieces between quotes, joined by `'`.
                    let (end, mut next) =
                        quoted(b, i, b'\'').ok_or("unterminated string literal")?;
                    let mut text = Cow::Borrowed(&input[i + 1..end]);
                    while b.get(next) == Some(&b'\'') {
                        let (end, after) =
                            quoted(b, next, b'\'').ok_or("unterminated string literal")?;
                        let owned = text.to_mut();
                        owned.push('\'');
                        owned.push_str(&input[next + 1..end]);
                        next = after;
                    }
                    (Token::String(text), next)
                }
                '"' => {
                    let (end, next) = quoted(b, i, b'"').ok_or("unterminated quoted identifier")?;
                    (Token::QuotedIdent(&input[i + 1..end]), next)
                }
                '0'..='9' => {
                    let end = self.run(i, number);
                    (Token::Number(&input[i..end]), end)
                }
                '-' if b.get(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                    let end = self.run(i + 1, number);
                    (Token::Number(&input[i..end]), end)
                }
                c if c.is_ascii_alphabetic() || c == '_' => {
                    let end = self.run(i, |c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.');
                    (Token::Word(&input[i..end]), end)
                }
                '<' if b.get(i + 1) == Some(&b'=') => (Token::Op("<="), i + 2),
                '>' if b.get(i + 1) == Some(&b'=') => (Token::Op(">="), i + 2),
                '<' if b.get(i + 1) == Some(&b'>') => (Token::Op("<>"), i + 2),
                '!' if b.get(i + 1) == Some(&b'=') => (Token::Op("<>"), i + 2),
                ':' if b.get(i + 1) == Some(&b':') => (Token::Op("::"), i + 2),
                '(' | ')' | ',' | ';' | '=' | '<' | '>' | '*' | '+' | '-' | '/' | '%' => {
                    (Token::Symbol(c), i + 1)
                }
                other => return Err(format!("unexpected character {other:?}")),
            };
            return Ok(Some(token));
        }
        Ok(None)
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Token<'a>, String>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.token_at(self.pos) {
            Ok(Some((token, end))) => {
                self.pos = end;
                Some(Ok(token))
            }
            Ok(None) => {
                self.pos = self.input.len();
                None
            }
            Err(e) => {
                self.pos = self.input.len();
                Some(Err(e))
            }
        }
    }
}

/// Tokenize `input`, or return a message describing the bad character.
pub fn tokenize(input: &str) -> Result<Vec<Token<'_>>, String> {
    Lexer::new(input).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let toks = tokenize("SELECT * FROM users WHERE id = 5;").unwrap();
        assert!(toks[0].is_kw("select"));
        assert_eq!(toks[1], Token::Symbol('*'));
        assert_eq!(toks[3].ident(), Some("users"));
        assert_eq!(toks[6], Token::Symbol('='));
        assert_eq!(toks[7], Token::Number("5"));
    }

    #[test]
    fn strings_and_quoted_idents() {
        let toks = tokenize(r#"CREATE DATABASE movr PRIMARY REGION "us-east1""#).unwrap();
        assert_eq!(toks.last().unwrap(), &Token::QuotedIdent("us-east1"));
        let toks = tokenize("SELECT 'it''s'").unwrap();
        assert_eq!(toks[1], Token::String("it's".into()));
    }

    #[test]
    fn comments_and_ops() {
        let toks = tokenize("a <= b -- trailing\n c <> d != e").unwrap();
        assert_eq!(toks[1], Token::Op("<="));
        assert_eq!(toks[4], Token::Op("<>"));
        assert_eq!(toks[6], Token::Op("<>"));
    }

    #[test]
    fn negative_numbers_and_floats() {
        let toks = tokenize("-30 1.5").unwrap();
        assert_eq!(toks[0], Token::Number("-30"));
        assert_eq!(toks[1], Token::Number("1.5"));
    }

    /// Escapes, quoted identifiers, negative numbers, comments and keyword
    /// case: each input lexes to this sequence.
    #[test]
    fn token_sequences() {
        use Token::*;
        let lit = |s: &'static str| String(Cow::Borrowed(s));
        let cases: Vec<(&str, Vec<Token>)> = vec![
            (
                "'it''s' '''' 'a''''b' '' 'x'",
                vec![lit("it's"), lit("'"), lit("a''b"), lit(""), lit("x")],
            ),
            (
                r#""Quoted Ident" "us-east1" "SELECT""#,
                vec![
                    QuotedIdent("Quoted Ident"),
                    QuotedIdent("us-east1"),
                    QuotedIdent("SELECT"),
                ],
            ),
            (
                "-30 - 5 -x 1.5 -2.25 a-1",
                vec![
                    Number("-30"),
                    Symbol('-'),
                    Number("5"),
                    Symbol('-'),
                    Word("x"),
                    Number("1.5"),
                    Number("-2.25"),
                    Word("a"),
                    Number("-1"),
                ],
            ),
            (
                "a -- comment; 'not a literal\n b--c\n--end",
                vec![Word("a"), Word("b")],
            ),
            (
                "SeLeCt t.k FROM from_x WHERE k<=1::INT",
                vec![
                    Word("SeLeCt"),
                    Word("t.k"),
                    Word("FROM"),
                    Word("from_x"),
                    Word("WHERE"),
                    Word("k"),
                    Op("<="),
                    Number("1"),
                    Op("::"),
                    Word("INT"),
                ],
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(tokenize(sql).unwrap(), want, "{sql:?}");
        }
        let toks = tokenize("SeLeCt 'plain' 'it''s'").unwrap();
        assert!(toks[0].is_kw("select"));
        // Only the escaped literal owns its text.
        assert!(matches!(toks[1], String(Cow::Borrowed("plain"))));
        assert!(matches!(&toks[2], String(Cow::Owned(s)) if s == "it's"));
    }

    #[test]
    fn errors_on_garbage() {
        assert!(tokenize("select #").is_err());
        assert!(tokenize("'unterminated").is_err());
    }
}
