//! Property-style tests for the parser, driven by a deterministic PRNG
//! (`lilac_util::rng`): printing a parsed program and re-parsing it is a
//! fixpoint, and arbitrary input never panics the lexer/parser.

use lilac_ast::{parse_program, printer::print_program};
use lilac_util::rng::Rng;

fn ident(rng: &mut Rng, upper_first: bool) -> String {
    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let first =
        if upper_first { UPPER[rng.index(UPPER.len())] } else { LOWER[rng.index(LOWER.len())] };
    let mut s = String::new();
    s.push(first as char);
    for _ in 0..rng.index(6) {
        s.push(TAIL[rng.index(TAIL.len())] as char);
    }
    const KEYWORDS: &[&str] = &[
        "comp",
        "extern",
        "gen",
        "new",
        "bundle",
        "for",
        "in",
        "if",
        "else",
        "assume",
        "assert",
        "let",
        "const",
        "interface",
        "with",
        "some",
        "where",
    ];
    if KEYWORDS.contains(&s.as_str()) {
        s.push('x');
    }
    s
}

/// Round trip: print(parse(x)) reparses to the same printed form.
#[test]
fn print_parse_roundtrip() {
    let mut rng = Rng::new(0x0A57);
    for case in 0..48 {
        let comp = ident(&mut rng, true);
        let port = ident(&mut rng, false);
        let width = rng.range_i64(1, 63);
        let latency = rng.range_i64(1, 7);
        let delay = rng.range_i64(1, 3);
        let src = format!(
            "extern comp {comp}[#W]<G:{delay}>({port}: [G, G+1] #W) -> (o: [G+{latency}, G+{latency}+1] #W) where #W > 0;\n\
             comp Top<G:{delay}>(i: [G, G+1] {width}) -> (o: [G+{latency}, G+{latency}+1] {width}) {{\n\
                 u := new {comp}[{width}]<G>(i);\n\
                 o = u.o;\n\
             }}\n"
        );
        let (p1, _) = parse_program("a.lilac", &src).expect("generated source parses");
        let printed1 = print_program(&p1);
        let (p2, _) = parse_program("b.lilac", &printed1).unwrap_or_else(|e| {
            panic!("case {case}: printed source fails to parse: {e}\n{printed1}")
        });
        let printed2 = print_program(&p2);
        assert_eq!(printed1, printed2, "case {case}");
    }
}

/// The lexer/parser never panics on arbitrary printable input: it either
/// parses or returns a structured error.
#[test]
fn parser_never_panics() {
    let mut rng = Rng::new(0xF422);
    for _ in 0..256 {
        let len = rng.index(200);
        let src: String = (0..len)
            .map(|_| {
                // Printable ASCII plus newline.
                let c = rng.range_i64(0x0A, 0x7E) as u8;
                if c < 0x20 && c != 0x0A {
                    ' '
                } else {
                    c as char
                }
            })
            .collect();
        let _ = parse_program("fuzz.lilac", &src);
    }
}

/// Keyword-flavored fragments sprinkled into random positions also never
/// panic and produce spans the renderer can handle.
#[test]
fn structured_fuzz_never_panics() {
    const FRAGMENTS: &[&str] = &[
        "comp",
        "extern",
        "gen",
        "new",
        "bundle",
        "for",
        "in",
        "if",
        "else",
        "assume",
        "assert",
        "let",
        "const",
        "interface",
        "[G, G+1]",
        "<G:1>",
        ":=",
        "#W",
        "..",
        "{",
        "}",
        "(",
        ")",
        ";",
        "->",
        "with",
        "some",
        "where",
    ];
    let mut rng = Rng::new(0x9A27);
    for _ in 0..256 {
        let n = rng.index(30);
        let src: String =
            (0..n).map(|_| FRAGMENTS[rng.index(FRAGMENTS.len())]).collect::<Vec<_>>().join(" ");
        let _ = parse_program("fuzz2.lilac", &src);
    }
}

/// Every diagnostic span of a rejected source, notes included, lies inside
/// the source and starts and ends on char boundaries.
fn assert_spans_in_bounds(src: &str, err: &lilac_util::LilacError) {
    for diag in err.diagnostics() {
        let spans = std::iter::once(diag.span).chain(diag.notes.iter().map(|(_, s)| *s));
        for span in spans {
            let (start, end) = (span.start as usize, span.end as usize);
            assert!(start <= end && end <= src.len(), "span {start}..{end} outside {src:?}");
            assert!(
                src.is_char_boundary(start) && src.is_char_boundary(end),
                "span {start}..{end} splits a character of {src:?}"
            );
        }
    }
}

/// Non-ASCII characters outside comments and strings are rejected with a
/// structured "unexpected character" diagnostic, never a panic: the lexer's
/// two-character operator lookahead must not slice inside a multi-byte
/// character.
#[test]
fn non_ascii_input_gets_a_diagnostic_not_a_panic() {
    for src in ["a —", "/§ x", "-–"] {
        let err = parse_program("m.lilac", src).expect_err("non-ASCII outside a comment");
        assert!(err.primary().message.starts_with("unexpected character"), "{src:?}: {err}");
        assert_spans_in_bounds(src, &err);
    }
    let valid = "// a comment\n\
                 extern comp Reg[#W]<G:1>(in: [G, G+1] #W) -> (out: [G+1, G+2] #W);\n\
                 comp Top[#W]<G:1>(i: [G, G+1] #W) -> (o: [G+1, G+2] #W) {\n\
                     r := new Reg[#W]<G>(i);\n\
                     o = r.out;\n\
                 }\n";
    let comment_end = valid.find('\n').expect("the comment ends the first line");
    for ch in ['—', '§', '–', 'é'] {
        for at in (0..=valid.len()).filter(|&at| valid.is_char_boundary(at)) {
            let src = format!("{}{ch}{}", &valid[..at], &valid[at..]);
            let in_comment = at > 1 && at <= comment_end;
            match parse_program("m.lilac", &src) {
                Ok(_) => assert!(in_comment, "{ch:?} at {at} was accepted"),
                Err(err) => {
                    assert!(!in_comment, "{ch:?} at {at} inside the comment: {err}");
                    assert_spans_in_bounds(&src, &err);
                    let span = err.primary().span;
                    assert!(span.start as usize <= at && at < span.end as usize, "{ch:?} at {at}");
                }
            }
        }
    }
}
