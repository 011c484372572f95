//! The fast goldens: regenerate five of the seven committed tables
//! in-process, with the traces their binaries write under `--trace`, and
//! compare them byte for byte with `results/<binary>.txt` and
//! `results/trace_digests.txt`. `fig6b`'s traced runs are checked here
//! too, but its table and all of `table1` take seconds each;
//! `scripts/regen_results.sh` checks them, and all seven tables at
//! `--threads 1` and 8.

use std::fs;
use std::path::Path;

use bench::fault_sweep;
use bench::report::{self, Report};

fn results(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Check `bin`'s report against its table and its trace digest.
fn check(bin: &str, report: Report) {
    let want = results(&format!("{bin}.txt"));
    if let Some((i, (got, want))) = report
        .text
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "results/{bin}.txt drifted at line {}:\n  got:  {got}\n  want: {want}",
            i + 1
        );
    }
    assert_eq!(report.text, want, "results/{bin}.txt drifted in length");
    check_trace(bin, &report.trace.expect("a report built traced"));
}

/// Check the trace `bin --trace` writes against its digest.
fn check_trace(bin: &str, trace: &[(String, dsim::TraceData)]) {
    let json = format!("{bin}.json");
    let digests = results("trace_digests.txt");
    let want = digests
        .lines()
        .find_map(|l| l.strip_suffix(json.as_str())?.strip_suffix("  "))
        .unwrap_or_else(|| panic!("no digest of {json} in results/trace_digests.txt"));
    let got = sha256_hex(dsim::chrome_trace_json(trace).as_bytes());
    assert_eq!(
        got, want,
        "the trace of {bin} drifted from results/trace_digests.txt"
    );
}

#[test]
fn fig6a_matches_results() {
    check("fig6a", report::fig6a(1, true));
}

/// NATIVE_VIA's and the SOVIA variants' 32 KB streams: where a slip in
/// descriptor order shows first.
#[test]
fn fig6b_trace_matches_its_digest() {
    check_trace("fig6b", &report::fig6b_trace());
}

#[test]
fn fig7_matches_results() {
    check("fig7", report::fig7(1, true));
}

#[test]
fn ablations_match_results() {
    check("ablations", report::ablations(1, true));
}

#[test]
fn fault_sweep_matches_results() {
    let seed = fault_sweep::SWEEP_SEED;
    check("fault_sweep", report::fault_sweep(1, seed, true));
}

#[test]
fn latency_breakdown_matches_results() {
    check("latency_breakdown", report::latency_breakdown(true));
}

/// SHA-256 (FIPS 180-4) as lowercase hex, as `sha256sum` prints it.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let mut v = h;
        for i in 0..64 {
            let [a, b, c, d, e, f, g, hh] = v;
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
            v = [t1.wrapping_add(t2), a, b, c, d.wrapping_add(t1), e, f, g];
        }
        for (x, y) in h.iter_mut().zip(v) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

#[test]
fn sha256_matches_the_standard_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Two blocks: the length no longer fits after the first one's padding.
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}
