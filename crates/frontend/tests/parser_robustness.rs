//! Parser robustness: malformed inputs must produce errors (with
//! positions), never panics; near-miss syntax is rejected.

use irr_frontend::parse_program;

fn rejects(src: &str) {
    match parse_program(src) {
        Ok(_) => panic!("should reject:\n{src}"),
        Err(e) => {
            // The error formats with a location.
            let msg = e.to_string();
            assert!(msg.contains("parse error"), "{msg}");
        }
    }
}

#[test]
fn unterminated_blocks() {
    rejects("program t\ndo i = 1, 3\nx = 1\nend\n");
    rejects("program t\nif (a > 0) then\nx = 1\nend\n");
    rejects("program t\nwhile (a > 0)\nx = 1\nend\n");
    rejects("program t\nx = 1\n"); // missing end
}

#[test]
fn mismatched_terminators() {
    rejects("program t\ndo i = 1, 3\nx = 1\nendif\nend\n");
    rejects("program t\nif (a > 0) then\nx = 1\nenddo\nend\n");
    // A labeled do closed with the wrong label.
    rejects("program t\ndo 10 i = 1, 3\nx = 1\n 20 continue\nend\n");
}

#[test]
fn malformed_expressions() {
    rejects("program t\nx = 1 +\nend\n");
    rejects("program t\nx = (1 + 2\nend\n");
    rejects("program t\nx = * 3\nend\n");
    rejects("program t\nx = min(1,\nend\n");
}

#[test]
fn malformed_statements() {
    rejects("program t\ndo i 1, 3\nx = 1\nenddo\nend\n");
    rejects("program t\ndo i = 1\nx = 1\nenddo\nend\n");
    rejects("program t\nif a > 0 then\nx = 1\nendif\nend\n");
    rejects("program t\ncall\nend\n");
    rejects("program t\n= 5\nend\n");
}

#[test]
fn duplicate_units() {
    rejects("program t\nx = 1\nend\nprogram t\ny = 2\nend\n");
    rejects("program t\nx = 1\nend\nsubroutine s\ny = 1\nend\nsubroutine s\nz = 1\nend\n");
}

#[test]
fn error_positions_point_at_the_problem() {
    let err = parse_program("program t\nx = 1\ny = @\nend\n").unwrap_err();
    assert_eq!(err.loc.line, 3, "{err}");
}

#[test]
fn deeply_nested_parse_is_fine() {
    // 40 nested ifs: recursion depth is healthy.
    let mut src = String::from("program t\ninteger a\n");
    for _ in 0..40 {
        src.push_str("if (a > 0) then\n");
    }
    src.push_str("a = 1\n");
    for _ in 0..40 {
        src.push_str("endif\n");
    }
    src.push_str("end\n");
    let p = parse_program(&src).unwrap();
    assert_eq!(p.stmts_in(&p.procedure(p.main()).body).len(), 41);
}

#[test]
fn crlf_and_semicolon_separators() {
    let p = parse_program("program t\r\nx = 1; y = 2\r\nend\r\n").unwrap();
    assert_eq!(p.stmts_in(&p.procedure(p.main()).body).len(), 2);
}

#[test]
fn keywords_are_case_insensitive() {
    let p = parse_program("PROGRAM T\nINTEGER I\nREAL X(5)\nDO I = 1, 5\nX(I) = I\nENDDO\nEND\n")
        .unwrap();
    assert_eq!(p.procedures[0].name, "t");
    assert!(p.symbols.lookup("x").is_some());
}

#[test]
fn no_panic_escapes_parse_on_the_malformed_corpus() {
    // Every corpus case — truncated loops, mismatched labels, giant
    // literals, hostile nesting, seeded mutations — must produce a
    // clean Ok or Err. A panic here is exactly the bug the service's
    // per-request isolation exists to contain; it must not exist.
    let mut escaped = Vec::new();
    for case in irr_frontend::malformed_corpus(200) {
        let src = case.source.clone();
        let r = std::panic::catch_unwind(move || {
            let _ = parse_program(&src);
        });
        if r.is_err() {
            escaped.push(case.name);
        }
    }
    assert!(escaped.is_empty(), "panics escaped parse: {escaped:?}");
}

#[test]
fn hostile_nesting_is_a_typed_error_not_a_crash() {
    for case in [
        "deep-paren-nest",
        "deep-unary-nest",
        "deep-loop-nest",
        "deep-if-nest",
    ] {
        let c = irr_frontend::malformed_corpus(0)
            .into_iter()
            .find(|c| c.name == case)
            .unwrap();
        let err = parse_program(&c.source).unwrap_err();
        assert!(
            err.to_string().contains("nesting deeper than"),
            "{case}: {err}"
        );
    }
}

#[test]
fn giant_literals_are_typed_errors() {
    rejects("program t\nx = 99999999999999999999999999999\nend\n");
    // Huge real exponents saturate to infinity in f64 and parse;
    // huge do-labels overflow u32's range check path.
    rejects("program t\ninteger i\nreal x(10)\ndo 4294967296 i = 1, 10\nx(i) = 1\nenddo\nend\n");
}

/// An extent is a positive integer literal, and the array it declares
/// fits one allocation. `a(4294967296, 4294967296)` has 2^64 elements:
/// their count wraps `usize` to 0, and a run that allocated that many
/// indexed past an empty buffer.
#[test]
fn extents_are_positive_literals_of_an_allocatable_array() {
    let decl = |d: &str| format!("program t\nreal a({d})\na(2, 1) = 1.0\nprint a(2, 1)\nend\n");
    let error = |src: &str| parse_program(src).unwrap_err().to_string();
    for (bad, why) in [
        ("4294967296, 4294967296", "too large to allocate"),
        ("1152921504606846976, 1", "too large to allocate"),
        ("0, 4", "positive integer literal"),
        ("-3, 4", "positive integer literal"),
        ("n, 4", "positive integer literal"),
        ("2 + 2, 4", "positive integer literal"),
        ("4.0, 4", "positive integer literal"),
    ] {
        let msg = error(&decl(bad));
        assert!(
            msg.contains("array `a`") && msg.contains(why),
            "{bad}: {msg}"
        );
    }
    // A bad extent is reported only when the program has no other error.
    let msg = error("program t\nreal a(n)\nx = 1 +\nend\n");
    assert!(msg.contains("expected expression"), "{msg}");
    let largest = (isize::MAX as usize / 8).to_string();
    let p = parse_program(&decl(&format!("{largest}, 1"))).unwrap();
    assert_eq!(
        p.symbols.var(p.symbols.lookup("a").unwrap()).dims,
        [isize::MAX as usize / 8, 1]
    );
    let p = parse_program(&decl("2, 1")).unwrap();
    assert_eq!(p.symbols.var(p.symbols.lookup("a").unwrap()).dims, [2, 1]);
}

#[test]
fn nesting_just_below_the_limit_parses() {
    let depth = 150; // below MAX_NESTING_DEPTH = 200
    let mut src = String::from("program t\ninteger a\n");
    for _ in 0..depth {
        src.push_str("if (a > 0) then\n");
    }
    src.push_str("a = 1\n");
    for _ in 0..depth {
        src.push_str("endif\n");
    }
    src.push_str("end\n");
    parse_program(&src).unwrap();
}

#[test]
fn comments_everywhere() {
    let p = parse_program(
        "! leading comment
         program t ! trailing
         ! inside
         integer i
         do i = 1, 2 ! bound comment
           ! body comment
           x = i
         enddo
         end ! done",
    )
    .unwrap();
    assert_eq!(p.procedures.len(), 1);
}
