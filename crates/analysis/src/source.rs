//! Lexical source model for the analyzer.
//!
//! The driver deliberately avoids a full Rust parser (the workspace
//! builds offline, with no `syn` available): lints operate on a
//! *code view* of each file in which comments and string/char literal
//! contents are blanked out, so textual patterns cannot be fooled by
//! doc prose or log messages. Comments are collected separately —
//! that is where `peering-analysis: allow(...)` annotations live.
//!
//! The model also tracks `#[cfg(test)]` item spans so in-crate unit
//! tests (which assert *with* hash containers rather than ship them)
//! are excluded from the shipped-code lints.

/// One scanned file: per-line code view, comments, and test spans.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Code view, one entry per source line (1-indexed via `line - 1`).
    /// Comments and literal contents are replaced by spaces.
    pub code_lines: Vec<String>,
    /// Comment text per line (concatenated when a line holds several).
    pub comment_lines: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

impl SourceFile {
    /// Build the lexical model for one file.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let bytes: Vec<char> = text.chars().collect();
        let mut code = String::with_capacity(text.len());
        let mut comment = String::with_capacity(64);
        let mut code_lines = Vec::new();
        let mut comment_lines = Vec::new();
        let mut mode = Mode::Code;
        let mut i = 0usize;
        while i < bytes.len() {
            let c = bytes[i];
            if c == '\n' {
                // A newline ends line comments; block comments and raw
                // strings continue across lines.
                if mode == Mode::LineComment {
                    mode = Mode::Code;
                }
                code_lines.push(std::mem::take(&mut code));
                comment_lines.push(std::mem::take(&mut comment));
                i += 1;
                continue;
            }
            match mode {
                Mode::Code => {
                    let next = bytes.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        mode = Mode::LineComment;
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                        continue;
                    }
                    if c == 'r' && matches!(next, Some('"') | Some('#')) {
                        // Possible raw string: r"..." or r#"..."# etc.
                        let mut hashes = 0u32;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            mode = Mode::RawStr(hashes);
                            for _ in i..=j {
                                code.push(' ');
                            }
                            i = j + 1;
                            continue;
                        }
                    }
                    if c == '\'' {
                        // Char literal vs lifetime: a literal closes with
                        // a quote within a few chars; a lifetime does not.
                        let close = if bytes.get(i + 1) == Some(&'\\') {
                            // escaped char: 'x' forms like '\n', '\u{..}'
                            (i + 2..(i + 12).min(bytes.len())).find(|&j| bytes[j] == '\'')
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            Some(i + 2)
                        } else {
                            None
                        };
                        if let Some(end) = close {
                            for _ in i..=end {
                                code.push(' ');
                            }
                            i = end + 1;
                            continue;
                        }
                        // Lifetime tick: keep as-is.
                        code.push('\'');
                        i += 1;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                }
                Mode::LineComment => {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
                Mode::BlockComment(depth) => {
                    let next = bytes.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::BlockComment(depth - 1)
                        };
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        continue;
                    }
                    if c == '/' && next == Some('*') {
                        mode = Mode::BlockComment(depth + 1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                        continue;
                    }
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
                Mode::Str => {
                    if c == '\\' {
                        code.push(' ');
                        if bytes.get(i + 1).is_some() && bytes[i + 1] != '\n' {
                            code.push(' ');
                            i += 2;
                        } else {
                            i += 1;
                        }
                        continue;
                    }
                    if c == '"' {
                        mode = Mode::Code;
                        code.push('"');
                        i += 1;
                        continue;
                    }
                    code.push(' ');
                    i += 1;
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        // Check for closing "### with the right count.
                        let mut ok = true;
                        for k in 0..hashes {
                            if bytes.get(i + 1 + k as usize) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            for _ in 0..=hashes {
                                code.push(' ');
                            }
                            i += 1 + hashes as usize;
                            mode = Mode::Code;
                            continue;
                        }
                    }
                    code.push(' ');
                    i += 1;
                }
            }
        }
        if !code.is_empty() || !comment.is_empty() {
            code_lines.push(code);
            comment_lines.push(comment);
        }
        let in_test = mark_test_spans(&code_lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            code_lines,
            comment_lines,
            in_test,
        }
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.code_lines.len()
    }

    /// Number of lines outside `#[cfg(test)]` items: what ships.
    pub fn shipped_line_count(&self) -> usize {
        self.in_test.iter().filter(|test| !**test).count()
    }
}

/// Mark every line belonging to a `#[cfg(test)]` item (attribute line
/// through the close of the item's brace block).
fn mark_test_spans(code_lines: &[String]) -> Vec<bool> {
    let mut marks = vec![false; code_lines.len()];
    let mut idx = 0usize;
    while idx < code_lines.len() {
        if !code_lines[idx].contains("#[cfg(test)]") {
            idx += 1;
            continue;
        }
        // Consume from the attribute to the end of the following braced
        // item (depth returns to zero after the first `{`).
        let mut depth: i64 = 0;
        let mut seen_open = false;
        let mut j = idx;
        while j < code_lines.len() {
            marks[j] = true;
            for ch in code_lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        seen_open = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if seen_open && depth <= 0 {
                break;
            }
            j += 1;
        }
        idx = j + 1;
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"HashMap inside string\"; // HashMap in comment\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code_lines[0].contains("HashMap"));
        assert!(f.comment_lines[0].contains("HashMap in comment"));
        assert!(f.code_lines[1].contains("let y"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let x = r#\"Instant::now()\"#;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code_lines[0].contains("Instant"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let src = "let c = '\"'; let m: HashMap<u8, u8> = HashMap::new();\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.code_lines[0].contains("HashMap"));
    }

    #[test]
    fn lifetimes_survive() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.code_lines[0].contains("'a"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ let z = 3;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.code_lines[0].contains("let z"));
        assert!(!f.code_lines[0].contains("outer"));
    }

    #[test]
    fn cfg_test_spans_marked() {
        let src =
            "fn shipped() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn also_shipped() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
        assert_eq!((f.line_count(), f.shipped_line_count()), (6, 2));
    }
}
