//! Property-based tests for the FEnerJ language: parser/printer round
//! trips over generated expressions, and the non-interference theorem over
//! *generated* well-typed programs — the strongest dynamic evidence this
//! reproduction offers for the paper's section 3.3 result.

use enerj_hw::config::{HwConfig, Level};
use enerj_hw::Hardware;
use enerj_lang::error::EvalError;
use enerj_lang::interp::{run, ExecMode};
use enerj_lang::noninterference::check_non_interference;
use enerj_lang::parser::parse_expr;
use enerj_lang::pretty::{expr_structurally_eq, expr_to_display};
use enerj_lang::{compile, typecheck};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A generator of syntactically valid FEnerJ integer expressions over the
/// variables `x` and `y` (precise) — a recursive grammar sampler.
fn int_expr(depth: u32) -> BoxedStrategy<String> {
    if depth == 0 {
        prop_oneof![
            (0i64..100).prop_map(|v| v.to_string()),
            Just("x".to_owned()),
            Just("y".to_owned()),
        ]
        .boxed()
    } else {
        let sub = int_expr(depth - 1);
        prop_oneof![
            int_expr(0),
            (sub.clone(), prop::sample::select(vec!["+", "-", "*"]), sub.clone())
                .prop_map(|(a, op, b)| format!("({a} {op} {b})")),
            (sub.clone(), sub.clone(), sub.clone())
                .prop_map(|(c, t, e)| format!("if (({c}) < 10) {{ {t} }} else {{ {e} }}")),
            (sub.clone(), sub).prop_map(|(v, b)| format!("let z = ({v}) in ({b})")),
        ]
        .boxed()
    }
}

/// A generator of whole well-typed programs: one class mixing approximate
/// and precise integer fields, mutated by a recursive method, returning
/// precise state. Well-typed *by construction*: approximate data flows
/// only into approximate fields.
fn isolated_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        // Precise updates of precise state.
        (0i64..50).prop_map(|v| format!("this.p := this.p + {v}")),
        (1i64..7).prop_map(|v| format!("this.p := this.p * {v}")),
        // Approximate updates of approximate state (precise operands flow
        // in via subtyping).
        (0i64..50).prop_map(|v| format!("this.a := this.a + {v}")),
        (1i64..7).prop_map(|v| format!("this.a := this.a * {v} + this.p")),
        // Precise-to-approximate crossover (legal direction).
        Just("this.a := this.p".to_owned()),
    ];
    (prop::collection::vec(stmt, 1..8), 1u32..20).prop_map(|(stmts, reps)| {
        format!(
            "class W extends Object {{
                 approx int a;
                 int p;
                 int work(int n) {{
                     if (n == 0) {{ this.p }}
                     else {{ {}; this.work(n - 1) }}
                 }}
             }}
             main {{ new W().work({reps}) }}",
            stmts.join("; ")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pretty-printing a parsed expression and reparsing it yields a
    /// structurally identical tree.
    #[test]
    fn print_parse_roundtrip(src in int_expr(3)) {
        let original = parse_expr(&src).expect("generated expressions parse");
        let printed = expr_to_display(&original);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        prop_assert!(
            expr_structurally_eq(&original, &reparsed),
            "round trip changed {src:?} -> {printed:?}"
        );
    }

    /// Generated precise integer expressions type-check at `precise int`
    /// and evaluate identically under the reliable and chaos semantics
    /// (non-interference for the expression fragment).
    #[test]
    fn precise_expressions_are_chaos_immune(body in int_expr(3), seed: u64) {
        let src = format!("main {{ let x = 3 in let y = 17 in {body} }}");
        let program = compile(&src).expect("generated programs are well-typed");
        prop_assert_eq!(
            program.main_type(),
            &enerj_lang::types::Type::precise_int()
        );
        let reliable = run(&program, ExecMode::Reliable).expect("evaluates");
        let chaotic = run(&program, ExecMode::Chaos { seed }).expect("evaluates");
        prop_assert_eq!(reliable.value, chaotic.value);
    }

    /// Non-interference over generated stateful programs: whatever the
    /// adversary does to the approximate field, the precise result stands.
    #[test]
    fn generated_programs_are_non_interfering(src in isolated_program()) {
        let program = compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        check_non_interference(&program, 0..10).unwrap_or_else(|e| panic!("{src}\n{e}"));
    }

    /// The checker's verdict is stable under pretty-printing: a well-typed
    /// program stays well-typed after a round trip through the printer.
    #[test]
    fn checking_is_stable_under_printing(src in isolated_program()) {
        let first = compile(&src).expect("well-typed");
        let printed = enerj_lang::pretty::program_to_string(&first.program);
        let second = enerj_lang::parser::parse(&printed)
            .unwrap_or_else(|e| panic!("{printed}\n{e}"));
        typecheck::check(second).unwrap_or_else(|e| panic!("{printed}\n{e}"));
    }

    /// Dynamic type soundness: generated well-typed programs never trip an
    /// internal interpreter error under any semantics — every failure mode
    /// is a *language-level* error the checker permits (there are none in
    /// this fragment) or a fault-model perturbation.
    #[test]
    fn well_typed_programs_never_go_wrong(src in isolated_program(), seed: u64) {
        let program = compile(&src).expect("well-typed");
        let modes: [ExecMode; 3] = [
            ExecMode::Reliable,
            ExecMode::Faulty(Rc::new(RefCell::new(Hardware::new(
                HwConfig::for_level(Level::Aggressive),
                seed,
            )))),
            ExecMode::Chaos { seed },
        ];
        for mode in modes {
            match run(&program, mode) {
                Ok(_) => {}
                Err(EvalError::Internal(msg)) => {
                    panic!("soundness violation on:\n{src}\n{msg}")
                }
                Err(other) => panic!("unexpected runtime error on:\n{src}\n{other}"),
            }
        }
    }

    /// The front end never panics, whatever bytes it is fed: it returns a
    /// structured error instead.
    #[test]
    fn frontend_total_on_arbitrary_input(src in ".{0,200}") {
        let _ = compile(&src); // must not panic
    }

    /// Nor on inputs built from the language's own token vocabulary, which
    /// exercise far deeper parser paths than random unicode.
    #[test]
    fn frontend_total_on_token_soup(
        tokens in prop::collection::vec(
            prop::sample::select(vec![
                "class", "extends", "main", "new", "this", "null", "if",
                "else", "let", "in", "endorse", "while", "int", "float",
                "precise", "approx", "top", "context", "{", "}", "(", ")",
                "[", "]", ";", ",", ".", ":=", "=", "+", "-", "*", "/",
                "%", "==", "!=", "<", "<=", ">", ">=", "x", "C", "3", "2.5",
            ]),
            0..60,
        ),
    ) {
        let src = tokens.join(" ");
        let _ = compile(&src); // must not panic
    }
}
