//! Helpers shared by the service's golden-fixture tests.

use std::fs;
use std::path::Path;

/// FNV-1a digest of `lines`, each followed by a newline.
pub fn fnv1a(lines: &[String]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Compares `actual` with `tests/fixtures/<file>`, or rewrites the fixture
/// when `UPDATE_GOLDEN` is set.
pub fn check(file: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create fixtures dir");
        }
        fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with UPDATE_GOLDEN=1)", path.display()));
    assert!(
        actual == expected,
        "output differs from {}\n--- expected\n{expected}--- actual\n{actual}",
        path.display()
    );
}
