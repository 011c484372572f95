//! A minimal Rust lexer: just enough to lint with.
//!
//! Produces an identifier/punctuation token stream with line numbers,
//! skipping the content of comments, string literals (including raw and
//! byte strings), char literals, and numbers — so `"std::time::Instant"`
//! inside a diagnostic message or a doc example never trips a rule.
//! Suppression comments (`// sovia-lint: allow(R3) -- reason`) are
//! collected separately during the same pass.

/// One token of interest to the rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// A single punctuation character (`::` arrives as two `:`).
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            Tok::Punct(_) => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

/// A parsed `// sovia-lint: allow(<rules>) -- <justification>` comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: u32,
    /// Upper-cased rule names, e.g. `["R2", "R5"]`.
    pub rules: Vec<String>,
    /// The text after `--`, trimmed. Empty means unjustified.
    pub justification: String,
}

/// Lexer output: the token stream plus the lint-control comments.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub suppressions: Vec<Suppression>,
    /// Comments that start with `sovia-lint:` but do not parse.
    pub malformed: Vec<(u32, String)>,
}

/// Lex `src`, then drop every item under `#[cfg(test)]` (in-file test
/// modules are host-side test code, outside the discipline).
pub fn lex(src: &str) -> Lexed {
    let mut lx = lex_raw(src);
    lx.tokens = strip_cfg_test(lx.tokens);
    lx
}

fn lex_raw(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();
    while i < n {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                scan_comment(&text, line, &mut out);
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Block comment, nested per Rust rules.
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&b, i, &mut line),
            'r' | 'b' if starts_raw_or_byte_string(&b, i) => {
                // r"..", r#".."#, b"..", br".." etc.
                let mut j = i;
                while j < n && (b[j] == 'r' || b[j] == 'b') {
                    j += 1;
                }
                if j < n && (b[j] == '#' || b[j] == '"') {
                    let mut hashes = 0;
                    while j < n && b[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    // j is at the opening quote.
                    j += 1;
                    loop {
                        if j >= n {
                            break;
                        }
                        if b[j] == '\n' {
                            line += 1;
                            j += 1;
                        } else if b[j] == '"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while k < n && b[k] == '#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                            j += 1;
                        } else {
                            j += 1;
                        }
                    }
                    i = j;
                } else {
                    // Plain identifier starting with r/b.
                    i = lex_ident(&b, i, line, &mut out);
                }
            }
            '\'' => {
                // Char literal or lifetime. A lifetime is `'ident` not
                // followed by a closing quote.
                if i + 2 < n && b[i + 1] == '\\' {
                    // Escaped char literal: skip to closing quote.
                    let mut j = i + 2;
                    while j < n && b[j] != '\'' {
                        j += 1;
                    }
                    i = j + 1;
                } else if i + 2 < n && b[i + 2] == '\'' {
                    i += 3; // 'c'
                } else {
                    // Lifetime: skip the quote, the ident lexes next.
                    i += 1;
                }
            }
            _ if c.is_ascii_digit() => {
                while i < n && (b[i].is_ascii_alphanumeric() || b[i] == '_' || b[i] == '.') {
                    // Numbers (incl. floats, suffixes); `1..x` ranges end
                    // the number at the second dot.
                    if b[i] == '.' && i + 1 < n && b[i + 1] == '.' {
                        break;
                    }
                    i += 1;
                }
            }
            _ if c.is_alphabetic() || c == '_' => {
                i = lex_ident(&b, i, line, &mut out);
            }
            _ => {
                if !c.is_whitespace() {
                    out.tokens.push(Token {
                        tok: Tok::Punct(c),
                        line,
                    });
                }
                i += 1;
            }
        }
    }
    out
}

fn lex_ident(b: &[char], mut i: usize, line: u32, out: &mut Lexed) -> usize {
    let start = i;
    while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
        i += 1;
    }
    out.tokens.push(Token {
        tok: Tok::Ident(b[start..i].iter().collect()),
        line,
    });
    i
}

fn skip_string(b: &[char], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn starts_raw_or_byte_string(b: &[char], i: usize) -> bool {
    let n = b.len();
    let mut j = i;
    while j < n && (b[j] == 'r' || b[j] == 'b') && j - i < 2 {
        j += 1;
    }
    if j >= n {
        return false;
    }
    if b[j] == '"' {
        return true;
    }
    if b[j] == '#' {
        // Raw string hashes must lead to a quote.
        let mut k = j;
        while k < n && b[k] == '#' {
            k += 1;
        }
        return k < n && b[k] == '"';
    }
    false
}

/// Parse a line comment for lint-control syntax.
fn scan_comment(text: &str, line: u32, out: &mut Lexed) {
    let body = text.trim_start_matches('/').trim_start_matches('!').trim();
    let Some(rest) = body.strip_prefix("sovia-lint:") else {
        return;
    };
    let rest = rest.trim();
    let parsed = (|| {
        let rest = rest.strip_prefix("allow")?;
        let rest = rest.trim_start().strip_prefix('(')?;
        let (rules_part, tail) = rest.split_once(')')?;
        let rules: Vec<String> = rules_part
            .split(',')
            .map(|r| r.trim().to_ascii_uppercase())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            return None;
        }
        let justification = tail
            .trim()
            .strip_prefix("--")
            .map(|j| j.trim().to_string())
            .unwrap_or_default();
        Some(Suppression {
            line,
            rules,
            justification,
        })
    })();
    match parsed {
        Some(s) => out.suppressions.push(s),
        None => out.malformed.push((line, rest.to_string())),
    }
}

/// Remove every item annotated `#[cfg(test)]` from the token stream.
fn strip_cfg_test(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            // Skip the attribute itself (7 tokens: # [ cfg ( test ) ]),
            // any further attributes, then the annotated item.
            i += 7;
            while i < tokens.len() && tokens[i].is_punct('#') {
                i = skip_attr(&tokens, i);
            }
            i = skip_item(&tokens, i);
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

fn is_cfg_test_attr(t: &[Token], i: usize) -> bool {
    i + 6 < t.len()
        && t[i].is_punct('#')
        && t[i + 1].is_punct('[')
        && t[i + 2].is_ident("cfg")
        && t[i + 3].is_punct('(')
        && t[i + 4].is_ident("test")
        && t[i + 5].is_punct(')')
        && t[i + 6].is_punct(']')
}

fn skip_attr(t: &[Token], mut i: usize) -> usize {
    // `#` `[` ... balanced ... `]`
    i += 1;
    if i < t.len() && t[i].is_punct('[') {
        let mut depth = 0;
        while i < t.len() {
            if t[i].is_punct('[') {
                depth += 1;
            } else if t[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
    }
    i
}

/// Skip one item: to the first top-level `{...}` block (consumed whole),
/// or to a terminating `;`, whichever comes first.
fn skip_item(t: &[Token], mut i: usize) -> usize {
    while i < t.len() {
        if t[i].is_punct(';') {
            return i + 1;
        }
        if t[i].is_punct('{') {
            let mut depth = 0;
            while i < t.len() {
                if t[i].is_punct('{') {
                    depth += 1;
                } else if t[i].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}
