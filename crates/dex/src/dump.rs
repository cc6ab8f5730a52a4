//! The dexdump-style disassembler.
//!
//! Produces the *bytecode plaintext* that BackDroid's on-the-fly search
//! greps (paper §III step 1). The layout mirrors real `dexdump -d` output,
//! including the quirks the paper has to work around: the per-method
//! banner line prints the dotted class name with inner-class `$` turned
//! into `.` (§IV-A step 2: "an inner class needs to add back the symbol
//! `$`").

use crate::insn::{Insn, Reg};
use crate::model::{ClassDef, DexFile, DexImage, EncodedMethod};
use backdroid_ir::{ClassName, FieldSig, MethodSig, Modifiers, Type};
use std::fmt::{self, Write as _};

/// The bytecode reference form of a method, as it appears in dexdump
/// operand positions: `Lcom/a/B;.start:(I)V`.
pub fn method_ref_string(sig: &MethodSig) -> String {
    let mut s = class_descriptor(sig.class());
    s.push('.');
    s.push_str(sig.name());
    s.push(':');
    push_proto(&mut s, sig);
    s
}

/// Parses a bytecode method reference back into a signature.
/// Inverse of [`method_ref_string`].
pub fn parse_method_ref(s: &str) -> Option<MethodSig> {
    // Lcom/a/B;.name:(params)ret
    let class_end = s.find(";.")?;
    let class_desc = &s[..class_end + 1];
    let Type::Object(class) = Type::from_descriptor(class_desc)? else {
        return None;
    };
    let rest = &s[class_end + 2..];
    let (name, proto) = rest.split_once(":(")?;
    let (params_str, ret_str) = proto.split_once(')')?;
    let mut params = Vec::new();
    let mut cur = params_str;
    while !cur.is_empty() {
        let (ty, rest) = Type::parse_descriptor_prefix(cur)?;
        params.push(ty);
        cur = rest;
    }
    let ret = Type::from_descriptor(ret_str)?;
    Some(MethodSig::new(class, name, params, ret))
}

/// The bytecode reference form of a field:
/// `Lcom/a/B;.httpServer:Lcom/c/D;`.
pub fn field_ref_string(sig: &FieldSig) -> String {
    let mut s = class_descriptor(sig.class());
    s.push('.');
    s.push_str(sig.name());
    s.push(':');
    sig.ty().push_descriptor(&mut s);
    s
}

/// Parses a bytecode field reference. Inverse of [`field_ref_string`].
pub fn parse_field_ref(s: &str) -> Option<FieldSig> {
    let class_end = s.find(";.")?;
    let Type::Object(class) = Type::from_descriptor(&s[..class_end + 1])? else {
        return None;
    };
    let rest = &s[class_end + 2..];
    let (name, ty_str) = rest.split_once(':')?;
    Some(FieldSig::new(class, name, Type::from_descriptor(ty_str)?))
}

/// The `Lcom/a/B;` descriptor of a class name.
pub fn class_descriptor(name: &ClassName) -> String {
    let mut s = String::new();
    name.push_descriptor(&mut s);
    s
}

/// Appends the proto used in method banner/type lines: `(I)V`.
fn push_proto(out: &mut String, sig: &MethodSig) {
    out.push('(');
    for p in sig.params() {
        p.push_descriptor(out);
    }
    out.push(')');
    sig.ret().push_descriptor(out);
}

/// The dotted banner form dexdump prints inside code listings, with the
/// inner-class `$` flattened to `.`:
/// `com.connectsdk.service.NetcastTVService.1.run:()V`.
pub fn banner_name(sig: &MethodSig) -> String {
    let mut s = String::new();
    push_banner(&mut s, sig);
    s
}

fn push_banner(out: &mut String, sig: &MethodSig) {
    for (i, part) in sig.class().as_str().split('$').enumerate() {
        if i > 0 {
            out.push('.');
        }
        out.push_str(part);
    }
    out.push('.');
    out.push_str(sig.name());
    out.push(':');
    push_proto(out, sig);
}

/// Appends access flags as dexdump prints them: `0x0009 (PUBLIC STATIC)`.
fn push_access(out: &mut String, access: Modifiers, is_init: bool) {
    out.push_str("0x");
    push_hex(out, access.bits(), 4);
    out.push_str(" (");
    let names = [
        (access.is_public(), "PUBLIC"),
        (access.is_private(), "PRIVATE"),
        (access.is_static(), "STATIC"),
        (access.is_final(), "FINAL"),
        (access.is_abstract(), "ABSTRACT"),
        (access.is_interface(), "INTERFACE"),
        (is_init, "CONSTRUCTOR"),
    ];
    let mut sep = "";
    for (_, name) in names.iter().filter(|(set, _)| *set) {
        out.push_str(sep);
        out.push_str(name);
        sep = " ";
    }
    out.push(')');
}

/// Appends `v` in lowercase hex, zero-padded to at least `width` digits
/// (the `{:0width$x}` format, without the formatting machinery).
fn push_hex(out: &mut String, v: u32, width: usize) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let digits = (8 - v.leading_zeros() as usize / 4).max(1);
    for _ in digits..width {
        out.push('0');
    }
    for k in (0..digits).rev() {
        out.push(DIGITS[(v >> (4 * k)) as usize & 0xf] as char);
    }
}

/// Appends the fake code-word hex column for an instruction, padded to
/// its 21-character width (stable filler so the dump *looks* like
/// dexdump output; never parsed by the search).
fn push_fake_words(out: &mut String, insn: &Insn, unit_off: u32) {
    const COLUMN: usize = 21;
    let start = out.len();
    let op = insn.pseudo_opcode() as u32;
    for k in 0..insn.units().min(3) {
        let w = (op << 8) ^ (unit_off.wrapping_mul(0x9e37).wrapping_add(k * 0x515d)) & 0xffff;
        if k > 0 {
            out.push(' ');
        }
        push_hex(out, w & 0xffff, 4);
    }
    for _ in out.len() - start..COLUMN {
        out.push(' ');
    }
}

struct Renderer<'a> {
    dex: &'a DexFile,
    out: &'a mut String,
    /// The file's method and field reference strings, indexed by pool
    /// id: rendered once per file rather than at every use.
    method_refs: Vec<String>,
    field_refs: Vec<String>,
    /// Fake absolute file offset, advanced per code unit.
    abs: u32,
}

impl<'a> Renderer<'a> {
    fn new(dex: &'a DexFile, out: &'a mut String) -> Renderer<'a> {
        Renderer {
            dex,
            out,
            method_refs: dex.method_sigs().iter().map(method_ref_string).collect(),
            field_refs: dex.field_sigs().iter().map(field_ref_string).collect(),
            abs: 0x1000,
        }
    }

    /// Appends the operand text of one instruction.
    fn operand(&mut self, insn: &Insn) -> fmt::Result {
        let dex = self.dex;
        let out = &mut *self.out;
        let suffix = |object: bool| if object { "-object" } else { "" };
        match insn {
            Insn::Nop => out.push_str("nop // spacer"),
            Insn::Move { dst, src } => write!(out, "move-object {dst}, {src}")?,
            Insn::MoveResult { dst, object } => {
                write!(out, "move-result{} {dst}", suffix(*object))?
            }
            Insn::ConstInt { dst, value } => write!(out, "const {dst}, #int {value}")?,
            Insn::ConstString { dst, idx } => write!(
                out,
                "const-string {dst}, \"{}\" // string@{:04x}",
                dex.string(*idx),
                idx.0
            )?,
            Insn::ConstClass { dst, idx } => write!(
                out,
                "const-class {dst}, {} // type@{:04x}",
                dex.type_desc(*idx),
                idx.0
            )?,
            Insn::ConstNull { dst } => write!(out, "const/4 {dst}, #int 0 // null")?,
            Insn::NewInstance { dst, idx } => write!(
                out,
                "new-instance {dst}, {} // type@{:04x}",
                dex.type_desc(*idx),
                idx.0
            )?,
            Insn::NewArray { dst, size, idx } => write!(
                out,
                "new-array {dst}, {size}, {} // type@{:04x}",
                dex.type_desc(*idx),
                idx.0
            )?,
            Insn::ArrayLength { dst, src } => write!(out, "array-length {dst}, {src}")?,
            Insn::CheckCast { reg, idx } => write!(
                out,
                "check-cast {reg}, {} // type@{:04x}",
                dex.type_desc(*idx),
                idx.0
            )?,
            Insn::InstanceOf { dst, src, idx } => write!(
                out,
                "instance-of {dst}, {src}, {} // type@{:04x}",
                dex.type_desc(*idx),
                idx.0
            )?,
            Insn::Iget {
                dst,
                obj,
                idx,
                object,
            } => write!(
                out,
                "iget{} {dst}, {obj}, {} // field@{:04x}",
                suffix(*object),
                self.field_refs[idx.0 as usize],
                idx.0
            )?,
            Insn::Iput {
                src,
                obj,
                idx,
                object,
            } => write!(
                out,
                "iput{} {src}, {obj}, {} // field@{:04x}",
                suffix(*object),
                self.field_refs[idx.0 as usize],
                idx.0
            )?,
            Insn::Sget { dst, idx, object } => write!(
                out,
                "sget{} {dst}, {} // field@{:04x}",
                suffix(*object),
                self.field_refs[idx.0 as usize],
                idx.0
            )?,
            Insn::Sput { src, idx, object } => write!(
                out,
                "sput{} {src}, {} // field@{:04x}",
                suffix(*object),
                self.field_refs[idx.0 as usize],
                idx.0
            )?,
            Insn::Aget { dst, arr, index } => write!(out, "aget-object {dst}, {arr}, {index}")?,
            Insn::Aput { src, arr, index } => write!(out, "aput-object {src}, {arr}, {index}")?,
            Insn::Invoke { kind, idx, args } => {
                out.push_str(kind.dex_mnemonic());
                out.push_str(" {");
                let mut sep = "";
                for Reg(r) in args {
                    write!(out, "{sep}v{r}")?;
                    sep = ", ";
                }
                write!(
                    out,
                    "}}, {} // method@{:04x}",
                    self.method_refs[idx.0 as usize], idx.0
                )?
            }
            Insn::Binop { op, dst, a, b } => {
                let mnem = match op {
                    backdroid_ir::BinOp::Add => "add-int",
                    backdroid_ir::BinOp::Sub => "sub-int",
                    backdroid_ir::BinOp::Mul => "mul-int",
                    backdroid_ir::BinOp::Div => "div-int",
                    backdroid_ir::BinOp::Rem => "rem-int",
                    backdroid_ir::BinOp::And => "and-int",
                    backdroid_ir::BinOp::Or => "or-int",
                    backdroid_ir::BinOp::Xor => "xor-int",
                    backdroid_ir::BinOp::Shl => "shl-int",
                    backdroid_ir::BinOp::Shr => "shr-int",
                    backdroid_ir::BinOp::Ushr => "ushr-int",
                    backdroid_ir::BinOp::Cmp => "cmp-long",
                };
                write!(out, "{mnem} {dst}, {a}, {b}")?
            }
            Insn::IfTest {
                mnemonic,
                a,
                b,
                target_units,
            } => write!(
                out,
                "{mnemonic} {a}, {b}, {target_units:04x} // +{target_units:04x}"
            )?,
            Insn::Goto { target_units } => {
                write!(out, "goto {target_units:04x} // +{target_units:04x}")?
            }
            Insn::ReturnVoid => out.push_str("return-void"),
            Insn::Return { reg, object } => write!(out, "return{} {reg}", suffix(*object))?,
            Insn::Throw { reg } => write!(out, "throw {reg}")?,
        }
        Ok(())
    }

    fn render_method(&mut self, class: &ClassDef, k: usize, m: &EncodedMethod) -> fmt::Result {
        let out = &mut *self.out;
        writeln!(out, "    #{k:<15}: (in {})", self.dex.type_desc(class.ty))?;
        writeln!(out, "      name          : '{}'", m.sig.name())?;
        out.push_str("      type          : '");
        push_proto(out, &m.sig);
        out.push_str("'\n      access        : ");
        push_access(out, m.access, m.sig.is_init());
        out.push('\n');
        let Some(code) = &m.code else {
            out.push_str("      code          : (none)\n\n");
            return Ok(());
        };
        out.push_str("      code          -\n");
        writeln!(out, "      registers     : {}", code.registers)?;
        writeln!(out, "      ins           : {}", m.sig.params().len() + 1)?;
        writeln!(
            out,
            "      insns size    : {} 16-bit code units",
            code.total_units
        )?;
        let method_start = self.abs;
        push_hex(out, method_start, 6);
        out.push_str(":                                       |[");
        push_hex(out, method_start, 6);
        out.push_str("] ");
        push_banner(out, &m.sig);
        out.push('\n');
        for (insn, &unit) in code.insns.iter().zip(&code.offsets) {
            let out = &mut *self.out;
            push_hex(out, method_start + unit * 2, 6);
            out.push_str(": ");
            push_fake_words(out, insn, unit);
            out.push_str(" |");
            push_hex(out, unit, 4);
            out.push_str(": ");
            self.operand(insn)?;
            self.out.push('\n');
        }
        self.abs = method_start + code.total_units * 2 + 12;
        self.out
            .push_str("      catches       : (none)\n      positions     : \n\n");
        Ok(())
    }

    fn render_class(&mut self, idx: usize, class: &ClassDef) -> fmt::Result {
        let desc = self.dex.type_desc(class.ty);
        let out = &mut *self.out;
        writeln!(out, "Class #{idx}            -")?;
        writeln!(out, "  Class descriptor  : '{desc}'")?;
        out.push_str("  Access flags      : ");
        push_access(out, class.access, false);
        out.push('\n');
        if let Some(sup) = class.superclass {
            writeln!(out, "  Superclass        : '{}'", self.dex.type_desc(sup))?;
        }
        out.push_str("  Interfaces        -\n");
        for (i, iface) in class.interfaces.iter().enumerate() {
            writeln!(
                out,
                "    #{i}              : '{}'",
                self.dex.type_desc(*iface)
            )?;
        }
        for (header, statics) in [
            ("  Static fields     -\n", true),
            ("  Instance fields   -\n", false),
        ] {
            out.push_str(header);
            let fields = class
                .fields
                .iter()
                .filter(|f| f.access.is_static() == statics);
            for (i, f) in fields.enumerate() {
                write!(
                    out,
                    "    #{i}              : (in {desc}) name:'{}' type:'",
                    f.sig.name()
                )?;
                f.sig.ty().push_descriptor(out);
                out.push_str("'\n");
            }
        }
        self.out.push_str("  Direct methods    -\n");
        for (k, m) in class.methods.iter().filter(|m| m.direct).enumerate() {
            self.render_method(class, k, m)?;
        }
        self.out.push_str("  Virtual methods   -\n");
        for (k, m) in class.methods.iter().filter(|m| !m.direct).enumerate() {
            self.render_method(class, k, m)?;
        }
        self.out.push('\n');
        Ok(())
    }
}

/// Disassembles all dex files of a (merged multidex) image into one
/// plaintext, as BackDroid's preprocessing step does (paper §III step 1).
pub fn dump_image(image: &DexImage) -> String {
    dump_image_with_marks(image).0
}

/// One class's extent within a [`dump_image`] plaintext: lines
/// `[line_start, line_end)` are exactly the class's rendered block
/// (banner through trailing blank line). The `Opened 'classesN.dex'`
/// header lines sit between marks and belong to no class.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassMark {
    /// The class rendered in this line range.
    pub name: ClassName,
    /// First line of the class block (0-based, inclusive).
    pub line_start: u32,
    /// One past the last line of the class block (exclusive).
    pub line_end: u32,
}

/// Like [`dump_image`], but also reports each class's line extent.
///
/// The plaintext is byte-identical to [`dump_image`]'s; the marks let
/// the incremental indexer attribute token scans to classes without
/// re-parsing the dump (class blocks can contain adversarial string
/// constants, so textual boundary sniffing is not trustworthy).
pub fn dump_image_with_marks(image: &DexImage) -> (String, Vec<ClassMark>) {
    let mut out = String::new();
    let mut marks = Vec::new();
    let mut line = 0u32;
    for (i, f) in image.files().iter().enumerate() {
        out.push_str("Opened 'classes");
        if i > 0 {
            let _ = write!(out, "{}", i + 1);
        }
        out.push_str(".dex', DEX version '038'\n");
        line += 1;
        let mut r = Renderer::new(f, &mut out);
        for (idx, class) in f.class_defs().iter().enumerate() {
            let before = r.out.len();
            r.render_class(idx, class)
                .expect("writing to a String cannot fail");
            let rendered = r.out[before..].bytes().filter(|&b| b == b'\n').count() as u32;
            marks.push(ClassMark {
                name: class.name.clone(),
                line_start: line,
                line_end: line + rendered,
            });
            line += rendered;
        }
    }
    (out, marks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backdroid_ir::{ClassBuilder, InvokeExpr, MethodBuilder, Program};

    fn program_with_invoke() -> Program {
        let caller = ClassName::new("com.connectsdk.service.NetcastTVService$1");
        let callee = MethodSig::new(
            "com.connectsdk.service.netcast.NetcastHttpServer",
            "start",
            vec![],
            Type::Void,
        );
        let mut run = MethodBuilder::public(&caller, "run", vec![], Type::Void);
        let srv = run.new_object(
            "com.connectsdk.service.netcast.NetcastHttpServer",
            vec![],
            vec![],
        );
        run.invoke(InvokeExpr::call_virtual(callee, srv, vec![]));
        let mut p = Program::new();
        p.add_class(
            ClassBuilder::new(caller.as_str())
                .implements("java.lang.Runnable")
                .method(run.build())
                .build(),
        );
        p
    }

    #[test]
    fn method_ref_round_trip() {
        let sig = MethodSig::new(
            "com.a.B$1",
            "run",
            vec![Type::Int, Type::string(), Type::array(Type::Byte)],
            Type::object("java.lang.Object"),
        );
        let s = method_ref_string(&sig);
        assert_eq!(
            s,
            "Lcom/a/B$1;.run:(ILjava/lang/String;[B)Ljava/lang/Object;"
        );
        assert_eq!(parse_method_ref(&s), Some(sig));
    }

    #[test]
    fn field_ref_round_trip() {
        let sig = FieldSig::new("com.studiosol.util.NanoHTTPD", "myPort", Type::Int);
        let s = field_ref_string(&sig);
        assert_eq!(s, "Lcom/studiosol/util/NanoHTTPD;.myPort:I");
        assert_eq!(parse_field_ref(&s), Some(sig));
    }

    #[test]
    fn banner_flattens_inner_class_dollar() {
        let sig = MethodSig::new(
            "com.connectsdk.service.NetcastTVService$1",
            "run",
            vec![],
            Type::Void,
        );
        assert_eq!(
            banner_name(&sig),
            "com.connectsdk.service.NetcastTVService.1.run:()V"
        );
    }

    #[test]
    fn dump_contains_invoke_reference() {
        let p = program_with_invoke();
        let img = crate::model::DexImage::encode(&p);
        let text = dump_image(&img);
        assert!(text.contains(
            "invoke-virtual {v1}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.start:()V"
        ));
        assert!(text.contains("Class descriptor  : 'Lcom/connectsdk/service/NetcastTVService$1;'"));
        assert!(text.contains("name          : 'run'"));
        assert!(text.contains("|[")); // banner line present
        assert!(text.contains("com.connectsdk.service.NetcastTVService.1.run:()V"));
    }

    #[test]
    fn dump_contains_new_instance_and_init() {
        let p = program_with_invoke();
        let img = crate::model::DexImage::encode(&p);
        let text = dump_image(&img);
        assert!(
            text.contains("new-instance v1, Lcom/connectsdk/service/netcast/NetcastHttpServer;")
        );
        assert!(text.contains(
            "invoke-direct {v1}, Lcom/connectsdk/service/netcast/NetcastHttpServer;.<init>:()V"
        ));
    }

    #[test]
    fn dump_is_deterministic() {
        let p = program_with_invoke();
        let a = dump_image(&crate::model::DexImage::encode(&p));
        let b = dump_image(&crate::model::DexImage::encode(&p));
        assert_eq!(a, b);
    }

    #[test]
    fn parse_method_ref_rejects_garbage() {
        assert_eq!(parse_method_ref("not a ref"), None);
        assert_eq!(parse_method_ref("Lcom/a/B;.name:()"), None);
        assert_eq!(parse_method_ref("Lcom/a/B;.name:(Q)V"), None);
    }
}
