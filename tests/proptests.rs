//! Property-based tests over the core data structures and invariants.

use backdroid_appgen::{AppSpec, Mechanism, Scenario, SinkKind};
use backdroid_core::{locate_sinks, slice_sink, AppArtifacts, DetectorRegistry, SlicerConfig};
use backdroid_dex::{dump_image, method_ref_string, parse_method_ref, DexImage};
use backdroid_ir::wire::fnv1a64;
use backdroid_ir::{
    BinOp, ClassBuilder, ClassName, Const, InvokeExpr, MethodBuilder, MethodSig, Program, Type,
    Value,
};
use backdroid_obs::Tracer;
use backdroid_search::{BytecodeText, SearchCmd, SearchEngine};
use backdroid_service::proto::{self, parse_json, Json};
use proptest::prelude::*;

/// Strategy for simple Java identifiers.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,8}".prop_map(|s| s)
}

/// Strategy for class names with 1–4 package segments and optional inner
/// class suffix.
fn class_name() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(ident(), 1..4),
        "[A-Z][a-zA-Z0-9]{0,6}",
        prop::option::of(0u8..3),
    )
        .prop_map(|(pkgs, cls, inner)| {
            let mut name = pkgs.join(".");
            if !name.is_empty() {
                name.push('.');
            }
            name.push_str(&cls);
            if let Some(k) = inner {
                name.push_str(&format!("${k}"));
            }
            name
        })
}

/// Strategy for simple types.
fn simple_type() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::Int),
        Just(Type::Long),
        Just(Type::Boolean),
        Just(Type::Double),
        Just(Type::string()),
        class_name().prop_map(Type::object),
        Just(Type::array(Type::Byte)),
    ]
}

fn method_sig() -> impl Strategy<Value = MethodSig> {
    (
        class_name(),
        ident(),
        prop::collection::vec(simple_type(), 0..4),
        prop_oneof![Just(Type::Void), simple_type()],
    )
        .prop_map(|(c, n, p, r)| MethodSig::new(c, n, p, r))
}

/// Descriptor-shaped strings: up to three `[`, a first element char
/// (every descriptor start, a letter none starts with, `;`, non-ASCII),
/// then a tail over the class-name alphabet. Valid, truncated and
/// malformed descriptors (`[V`, `L;`, `L…` without `;`) all come up.
fn descriptor_shaped() -> impl Strategy<Value = String> {
    ("[[]{0,3}", "[LLLVVZBSCIJFDQ;é€]", "[Lx/;;;é]{0,5}").prop_map(|(a, b, c)| a + &b + &c)
}

/// Arbitrary strings: half the characters ASCII, half any code point.
fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..10).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|c| {
                char::from_u32(if c & 1 == 0 {
                    (c >> 1) & 0x7f
                } else {
                    (c >> 1) % 0x11_0000
                })
            })
            .collect()
    })
}

/// `value` escaped the way the obs crate's span export emits a
/// deterministic attribute. (Metric names are restricted to
/// `[a-z0-9_]`, so the span export is where that escaper meets
/// arbitrary strings.)
fn exported_attr(value: &str) -> String {
    let tracer = Tracer::with_capacity(1);
    let mut tb = tracer.begin(0);
    let root = tb.open(None, "request");
    tb.attr(root, "app", value);
    tb.finish(&tracer);
    let line = tracer.export_normalized_jsonl();
    line.strip_prefix(
        "{\"trace\":0,\"span\":0,\"parent\":null,\"name\":\"request\",\"attrs\":{\"app\":\"",
    )
    .and_then(|rest| rest.strip_suffix("\"},\"start\":0,\"end\":0}\n"))
    .unwrap_or_else(|| panic!("one span with one attribute: {line}"))
    .to_string()
}

/// The length the allocating descriptor parser consumes from `s`.
fn parsed_prefix_len(s: &str) -> Option<usize> {
    Type::parse_descriptor_prefix(s).map(|(_, rest)| s.len() - rest.len())
}

#[test]
fn descriptor_prefix_len_matches_parser_on_edge_cases() {
    for s in [
        "",
        "V",
        "[V",
        "[[V",
        "L",
        "L;",
        "Lx",
        "Lx;",
        "[[Lx;",
        "[[Lx;rest",
        "[",
        "[[",
        "é",
        "[é",
        "Lé;",
        "Q",
        "IJ",
        "(I)V",
    ] {
        assert_eq!(
            Type::descriptor_prefix_len(s),
            parsed_prefix_len(s),
            "input {s:?}"
        );
    }
}

proptest! {
    /// Descriptor encoding/decoding round-trips for arbitrary types.
    #[test]
    fn type_descriptor_round_trip(t in simple_type()) {
        let desc = t.descriptor();
        prop_assert_eq!(Type::from_descriptor(&desc), Some(t));
    }

    /// The non-allocating descriptor scanner consumes exactly what the
    /// parser consumes, on descriptor-shaped input.
    #[test]
    fn descriptor_prefix_len_matches_parser(s in descriptor_shaped()) {
        prop_assert_eq!(Type::descriptor_prefix_len(&s), parsed_prefix_len(&s));
    }

    /// ... and on arbitrary strings.
    #[test]
    fn descriptor_prefix_len_matches_parser_on_any_string(s in any_string()) {
        prop_assert_eq!(Type::descriptor_prefix_len(&s), parsed_prefix_len(&s));
    }

    /// `fnv1a64` is textbook 64-bit FNV-1a: shard routing and the
    /// whole-app baseline's error injection (which appgen picks app
    /// names against) depend on its exact values.
    #[test]
    fn fnv1a64_matches_reference_loop(s in any_string()) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        prop_assert_eq!(fnv1a64(s.as_bytes()), h);
    }

    /// The one JSON escaper: the wire protocol re-exports the obs
    /// crate's, and what it emits parses back to the input. The length
    /// pins the form: two-byte escapes for quote, backslash, `\n`, `\r`
    /// and `\t`, `\u00XX` for other control characters, everything
    /// else verbatim.
    #[test]
    fn escaped_strings_parse_back(s in any_string()) {
        let escaped = exported_attr(&s);
        prop_assert_eq!(&proto::escape(&s), &escaped);
        prop_assert_eq!(parse_json(&format!("\"{escaped}\"")), Ok(Json::Str(s.clone())));
        let expected_len: usize = s
            .chars()
            .map(|c| match c {
                '"' | '\\' | '\n' | '\r' | '\t' => 2,
                c if c < ' ' => 6,
                c => c.len_utf8(),
            })
            .sum();
        prop_assert_eq!(escaped.len(), expected_len);
    }

    /// Soot-format method signatures parse back to themselves.
    #[test]
    fn method_sig_display_round_trip(m in method_sig()) {
        let rendered = m.to_string();
        prop_assert_eq!(MethodSig::parse(&rendered), Some(m));
    }

    /// The dexdump bytecode reference form is a bijection on signatures:
    /// the IR ⇄ bytecode format translation of paper §IV-A never loses
    /// information.
    #[test]
    fn bytecode_ref_round_trip(m in method_sig()) {
        let r = method_ref_string(&m);
        prop_assert_eq!(parse_method_ref(&r), Some(m));
    }

    /// Search soundness over generated programs: every virtual invoke in
    /// the IR is findable in the dump by its translated signature, and the
    /// hit maps back to the true containing method.
    #[test]
    fn every_invoke_is_searchable(
        n_callers in 1usize..6,
        callee_class in class_name(),
        callee_name in ident(),
    ) {
        let callee = MethodSig::new(callee_class.clone(), &callee_name, vec![], Type::Void);
        let mut program = Program::new();
        let mut cm = MethodBuilder::public(&ClassName::new(callee_class.clone()), &callee_name, vec![], Type::Void);
        cm.ret_void();
        let mut ctor = MethodBuilder::constructor(&ClassName::new(callee_class.clone()), vec![]);
        ctor.ret_void();
        program.add_class(
            ClassBuilder::new(callee_class.as_str())
                .method(cm.build())
                .method(ctor.build())
                .build(),
        );
        let mut expected = Vec::new();
        for i in 0..n_callers {
            let caller_class = ClassName::new(format!("com.gen.caller.C{i}"));
            let mut mb = MethodBuilder::public(&caller_class, "go", vec![], Type::Void);
            let obj = mb.new_object(callee_class.as_str(), vec![], vec![]);
            mb.invoke(InvokeExpr::call_virtual(callee.clone(), obj, vec![]));
            program.add_class(ClassBuilder::new(caller_class.as_str()).method(mb.build()).build());
            expected.push(format!("<{caller_class}: void go()>"));
        }
        let dump = dump_image(&DexImage::encode(&program));
        let engine = SearchEngine::new(BytecodeText::index(&dump));
        let hits = engine.run(&SearchCmd::InvokeOf(callee));
        let mut found: Vec<String> = hits.iter().map(|h| h.method.to_string()).collect();
        found.sort();
        expected.sort();
        prop_assert_eq!(found, expected);
    }

    /// Constant folding agrees with a direct interpreter on random
    /// integer expressions.
    #[test]
    fn binop_folding_matches_interpreter(a in -1000i64..1000, b in -1000i64..1000) {
        use backdroid_core::{fold_binop, DataflowValue};
        for (op, reference) in [
            (BinOp::Add, a.wrapping_add(b)),
            (BinOp::Sub, a.wrapping_sub(b)),
            (BinOp::Mul, a.wrapping_mul(b)),
            (BinOp::And, a & b),
            (BinOp::Or, a | b),
            (BinOp::Xor, a ^ b),
        ] {
            prop_assert_eq!(
                fold_binop(op, &DataflowValue::Int(a), &DataflowValue::Int(b)),
                DataflowValue::Int(reference)
            );
        }
        if b != 0 {
            prop_assert_eq!(
                fold_binop(BinOp::Div, &DataflowValue::Int(a), &DataflowValue::Int(b)),
                DataflowValue::Int(a.wrapping_div(b))
            );
        }
    }

    /// Forward propagation recovers a randomly assembled transformation
    /// string built via string concatenation through a private chain.
    #[test]
    fn string_concat_chain_is_recovered(
        algo in prop_oneof![Just("AES"), Just("DES"), Just("RSA")],
        mode in prop_oneof![Just("ECB"), Just("CBC"), Just("GCM")],
    ) {
        let expected = format!("{algo}/{mode}/PKCS5Padding");
        let act = ClassName::new("com.pt.Main");
        let mut on_create = MethodBuilder::public(&act, "onCreate", vec![], Type::Void);
        let a = on_create.assign_const(Const::str(format!("{algo}/")));
        let b = on_create.assign_const(Const::str(format!("{mode}/PKCS5Padding")));
        let joined = on_create.binop(
            BinOp::Add,
            Value::Local(a),
            Value::Local(b),
            Type::string(),
        );
        on_create.invoke(InvokeExpr::call_static(
            MethodSig::new(
                "javax.crypto.Cipher",
                "getInstance",
                vec![Type::string()],
                Type::object("javax.crypto.Cipher"),
            ),
            vec![Value::Local(joined)],
        ));
        let mut program = Program::new();
        program.add_class(
            ClassBuilder::new(act.as_str())
                .extends("android.app.Activity")
                .method(on_create.build())
                .build(),
        );
        let mut manifest = backdroid_manifest::Manifest::new("com.pt");
        manifest.register(backdroid_manifest::Component::new(
            backdroid_manifest::ComponentKind::Activity,
            act.as_str(),
        ));
        let report = backdroid_core::Backdroid::new().analyze(&program, &manifest);
        prop_assert_eq!(report.sink_reports.len(), 1);
        prop_assert_eq!(
            report.sink_reports[0].param_values[0].as_str(),
            Some(expected.as_str())
        );
        let should_flag = mode == "ECB";
        prop_assert_eq!(report.sink_reports[0].verdict.is_vulnerable(), should_flag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// SSG structural invariants hold for arbitrary scenario mixes: edges
    /// connect existing units, the sink unit is recorded, entries imply
    /// reachability.
    #[test]
    fn ssg_invariants_hold(
        seed in 0u64..500,
        mech_idx in 0usize..14,
        insecure in any::<bool>(),
    ) {
        let mech = [
            Mechanism::DirectEntry,
            Mechanism::PrivateChain,
            Mechanism::StaticChain,
            Mechanism::ChildClass,
            Mechanism::SuperClassPoly,
            Mechanism::InterfaceRunnable,
            Mechanism::CallbackOnClick,
            Mechanism::AsyncTask,
            Mechanism::ClinitReachable,
            Mechanism::ClinitOffPath,
            Mechanism::IccExplicit,
            Mechanism::IccImplicit,
            Mechanism::LifecycleChain,
            Mechanism::DeadCode,
        ][mech_idx];
        let app = AppSpec::named("com.pt.ssg")
            .with_seed(seed)
            .with_scenario(Scenario::new(mech, SinkKind::Cipher, insecure))
            .with_filler(4, 3, 4)
            .generate();
        let registry = DetectorRegistry::paper().sink_registry();
        let artifacts = AppArtifacts::new(app.program.clone(), app.manifest.clone());
        let mut ctx = artifacts.task();
        let sites = locate_sinks(&mut ctx, &registry, false);
        prop_assert!(!sites.is_empty(), "{mech:?}: sink must be locatable");
        for site in sites {
            let spec = &registry.sinks()[site.spec_idx];
            let result = slice_sink(
                &mut ctx,
                SlicerConfig::default(),
                &site.method,
                site.stmt_idx,
                spec,
            );
            let ssg = &result.ssg;
            prop_assert!(ssg.sink_unit().is_some());
            for &(from, to, _) in ssg.edges() {
                prop_assert!(from < ssg.units().len());
                prop_assert!(to < ssg.units().len());
            }
            for &u in ssg.static_track() {
                prop_assert!(u < ssg.units().len());
            }
            if result.reachable {
                prop_assert!(ssg.is_entry_reachable());
            }
            // unit index is consistent
            for unit in ssg.units() {
                prop_assert_eq!(ssg.unit_id(&unit.method, unit.stmt_idx), Some(unit.id));
            }
        }
    }

    /// Generator size monotonicity: more filler ⇒ more code and bytes.
    #[test]
    fn generator_size_monotonic(base in 3usize..12) {
        let small = AppSpec::named("com.pt.sz").with_filler(base, 3, 4).generate();
        let large = AppSpec::named("com.pt.sz").with_filler(base * 3, 3, 4).generate();
        prop_assert!(large.program.class_count() > small.program.class_count());
        prop_assert!(large.apk_size_bytes() > small.apk_size_bytes());
    }
}
