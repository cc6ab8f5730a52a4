//! Byte-identity golden for the cold image build: DEX encode →
//! disassembly → text index. One FNV-1a hash pins, for a fixed benchset
//! slice plus one forced multidex split,
//!
//! * the `dump_image_with_marks` plaintext,
//! * every `ClassMark` (name, first line, end line),
//! * the `BytecodeText::write_wire` bytes with the posting-list index
//!   built, and
//! * `DexImage::byte_size`.
//!
//! The build's speed may change; its output may not. A change that moves
//! this hash changes what every later search sees, so it is a format
//! change and needs its own justification, not a performance one.

use backdroid_appgen::benchset::{bench_app, BenchsetConfig};
use backdroid_dex::{dump_image_with_marks, DexImage};
use backdroid_ir::wire::WireWriter;
use backdroid_search::BytecodeText;

/// The pinned hash of the build outputs below.
const GOLDEN: u64 = 0x38b5_16fe_809a_d3c3;

/// Incremental 64-bit FNV-1a over length-prefixed fields, so no two
/// field sequences hash the same concatenation.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in (b.len() as u64).to_le_bytes().iter().chain(b) {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn absorb(h: &mut Fnv, image: &DexImage) {
    let (dump, marks) = dump_image_with_marks(image);
    h.bytes(dump.as_bytes());
    h.u64(marks.len() as u64);
    for m in &marks {
        h.bytes(m.name.as_str().as_bytes());
        h.u64(m.line_start as u64);
        h.u64(m.line_end as u64);
    }
    let text = BytecodeText::index(&dump);
    text.search_index();
    let mut w = WireWriter::new();
    text.write_wire(&mut w);
    h.bytes(&w.into_bytes());
    h.u64(image.byte_size());
}

#[test]
fn cold_build_output_is_pinned() {
    let cfg = BenchsetConfig::sized(144, 0.25);
    let mut h = Fnv::new();
    for i in (0..cfg.count).step_by(4) {
        let app = bench_app(i, cfg).app;
        absorb(&mut h, &DexImage::encode(&app.program));
        if i == 0 {
            // A small method-reference limit forces a multidex split.
            let image = DexImage::encode_with_limit(&app.program, 64);
            assert!(image.files().len() > 2, "expected a multidex split");
            absorb(&mut h, &image);
        }
    }
    assert_eq!(h.0, GOLDEN, "build output hash: {:#018x}", h.0);
}
