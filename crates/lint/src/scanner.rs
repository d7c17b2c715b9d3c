//! A small line-oriented token scanner over Rust source.
//!
//! The analyzers in this crate are *lints*, not a compiler: they work on a
//! per-line view of the source with enough lexical structure to avoid the
//! classic false positives — matches inside string literals, inside
//! comments, or inside `#[cfg(test)]` modules. For each input line the
//! scanner produces:
//!
//! * [`Line::code`] — the line with comments removed and the *contents* of
//!   string/char literals blanked to spaces (quotes kept), so identifier
//!   and method-call patterns match only real code;
//! * [`Line::literals`] — the line with comments removed but string
//!   literals intact, for rules that inspect format strings;
//! * [`Line::in_test`] — whether the line sits inside a `#[cfg(test)]`
//!   module (brace-matched), which every rule skips.

/// One scanned source line. See the [module docs](self) for field
/// semantics.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number in the source file.
    pub number: usize,
    /// Code with comments stripped and literal contents blanked.
    pub code: String,
    /// Code with comments stripped but literal contents kept.
    pub literals: String,
    /// True inside a `#[cfg(test)] mod … { … }` region.
    pub in_test: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    Str,
    RawStr(usize),
    Char,
    Block(usize),
}

/// Scan `source` into per-line lexical views.
pub fn scan(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = State::Normal;
    for (i, raw) in source.lines().enumerate() {
        let mut code = String::with_capacity(raw.len());
        let mut literals = String::with_capacity(raw.len());
        let chars: Vec<char> = raw.chars().collect();
        let mut j = 0usize;
        while j < chars.len() {
            let c = chars[j];
            match state {
                State::Normal => {
                    if c == '/' && chars.get(j + 1) == Some(&'/') {
                        break;
                    } else if c == '/' && chars.get(j + 1) == Some(&'*') {
                        state = State::Block(1);
                        j += 2;
                        continue;
                    } else if c == '"' {
                        code.push('"');
                        literals.push('"');
                        state = State::Str;
                    } else if c == 'r'
                        && (chars.get(j + 1) == Some(&'"') || chars.get(j + 1) == Some(&'#'))
                    {
                        // Raw string r"…" / r#"…"#: count the hashes.
                        let mut hashes = 0usize;
                        let mut k = j + 1;
                        while chars.get(k) == Some(&'#') {
                            hashes += 1;
                            k += 1;
                        }
                        if chars.get(k) == Some(&'"') {
                            code.push('"');
                            literals.push('"');
                            state = State::RawStr(hashes);
                            j = k + 1;
                            continue;
                        }
                        code.push(c);
                        literals.push(c);
                    } else if c == '\'' {
                        // Char literal vs lifetime: a lifetime is `'ident`
                        // not followed by a closing quote.
                        let close =
                            chars.get(j + 2) == Some(&'\'') || (chars.get(j + 1) == Some(&'\\'));
                        if close {
                            code.push('\'');
                            literals.push('\'');
                            state = State::Char;
                        } else {
                            code.push(c);
                            literals.push(c);
                        }
                    } else {
                        code.push(c);
                        literals.push(c);
                    }
                }
                State::Str => {
                    literals.push(c);
                    if c == '\\' {
                        if let Some(&n) = chars.get(j + 1) {
                            literals.push(n);
                            code.push(' ');
                            code.push(' ');
                            j += 2;
                            continue;
                        }
                    }
                    if c == '"' {
                        code.push('"');
                        state = State::Normal;
                    } else {
                        code.push(' ');
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut k = j + 1;
                        let mut seen = 0usize;
                        while seen < hashes && chars.get(k) == Some(&'#') {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            code.push('"');
                            literals.push('"');
                            state = State::Normal;
                            j = k;
                            continue;
                        }
                    }
                    code.push(' ');
                    literals.push(c);
                }
                State::Char => {
                    literals.push(c);
                    if c == '\\' {
                        if let Some(&n) = chars.get(j + 1) {
                            literals.push(n);
                            code.push(' ');
                            code.push(' ');
                            j += 2;
                            continue;
                        }
                    }
                    if c == '\'' {
                        code.push('\'');
                        state = State::Normal;
                    } else {
                        code.push(' ');
                    }
                }
                State::Block(depth) => {
                    if c == '*' && chars.get(j + 1) == Some(&'/') {
                        state = if depth == 1 {
                            State::Normal
                        } else {
                            State::Block(depth - 1)
                        };
                        j += 2;
                        continue;
                    }
                    if c == '/' && chars.get(j + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        j += 2;
                        continue;
                    }
                }
            }
            j += 1;
        }
        // Ordinary string literals span lines in Rust (with or without a
        // trailing `\` continuation), so `Str` state carries over; char
        // literals cannot.
        if state == State::Char {
            state = State::Normal;
        }
        out.push(Line {
            number: i + 1,
            code,
            literals,
            in_test: false,
        });
    }
    mark_test_regions(&mut out);
    out
}

/// Mark every line inside a `#[cfg(test)]`-attributed item (brace-matched
/// from the item's opening `{`). In practice this is the conventional
/// `#[cfg(test)] mod tests { … }` at the end of each module.
fn mark_test_regions(lines: &mut [Line]) {
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the attributed item.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

/// True if `c` can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let src = r#"let x = "HashMap::new()"; // HashMap comment
let m: HashMap<u32, u32> = HashMap::new();"#;
        let lines = scan(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].literals.contains("HashMap::new()"));
        assert!(lines[1].code.contains("HashMap<u32, u32>"));
    }

    #[test]
    fn block_comments_and_raw_strings() {
        let src = "let a = 1; /* HashMap\nstill comment */ let b = r#\"HashSet\"#;";
        let lines = scan(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(!lines[1].code.contains("HashSet"));
        assert!(lines[1].code.contains("let b ="));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = scan("fn f<'a>(x: &'a HashMap<u32, u32>) {}");
        assert!(lines[0].code.contains("HashMap"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let lines = scan(src);
        let flags: Vec<bool> = lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }
}
