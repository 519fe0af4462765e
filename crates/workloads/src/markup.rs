//! XML-markup stand-in: the enwik benchmark \[16\] the paper streams is not
//! plain prose but a MediaWiki *XML dump* — prose wrapped in a heavily
//! repetitive element skeleton. This generator reproduces that mix: long
//! perfectly-repeating tag scaffolding (deep matches) interleaved with
//! Markov prose from [`crate::wiki`] (short matches and literals).

use crate::wiki;
use lzfpga_sim::rng::XorShift64;

/// Generate `len` bytes of MediaWiki-dump-like XML.
pub fn generate(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = XorShift64::new(seed ^ 0xE0_17_AB);
    let mut out = Vec::with_capacity(len + 1_024);
    out.extend_from_slice(
        b"<mediawiki xmlns=\"http://www.mediawiki.org/xml/export-0.3/\" xml:lang=\"en\">\n",
    );
    let mut page_id = 10_000 + rng.below_usize(10_000);
    let mut body_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < len {
        page_id += 1 + rng.below_usize(8);
        body_seed = body_seed.wrapping_add(0xD1B5_4A32_D192_ED03);
        let body = wiki::generate(body_seed, 400 + rng.below_usize(2_000));
        out.extend_from_slice(b"  <page>\n    <title>Article ");
        out.extend_from_slice(page_id.to_string().as_bytes());
        out.extend_from_slice(b"</title>\n    <id>");
        out.extend_from_slice(page_id.to_string().as_bytes());
        out.extend_from_slice(b"</id>\n    <revision>\n      <id>");
        out.extend_from_slice((page_id * 7 + 13).to_string().as_bytes());
        out.extend_from_slice(b"</id>\n      <timestamp>2011-09-0");
        out.extend_from_slice([b'1' + rng.range_u32(0, 8) as u8].as_slice());
        out.extend_from_slice(b"T12:00:00Z</timestamp>\n      <contributor><username>Editor");
        out.extend_from_slice((page_id % 97).to_string().as_bytes());
        out.extend_from_slice(b"</username></contributor>\n      <text xml:space=\"preserve\">");
        out.extend_from_slice(&body);
        out.extend_from_slice(b"</text>\n    </revision>\n  </page>\n");
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_sized() {
        assert_eq!(generate(3, 20_000), generate(3, 20_000));
        assert_eq!(generate(3, 20_000).len(), 20_000);
        assert_ne!(generate(3, 20_000), generate(4, 20_000));
    }

    #[test]
    fn contains_the_skeleton() {
        let text = String::from_utf8(generate(1, 60_000)).unwrap();
        assert!(text.starts_with("<mediawiki"));
        assert!(text.matches("<revision>").count() > 5);
        assert!(text.matches("xml:space=\"preserve\"").count() > 5);
    }

    #[test]
    fn compresses_better_than_plain_prose() {
        // The tag skeleton is pure redundancy on top of the prose.
        let params = lzfpga_lzss::LzssParams::paper_fast();
        let bits = |data: &[u8]| {
            let tokens = lzfpga_lzss::TurboEngine::new().compress(data, &params);
            lzfpga_deflate::encoder::fixed_block_bit_size(&tokens) as f64
        };
        let xml = generate(5, 150_000);
        let prose = wiki::generate(5, 150_000);
        let xml_ratio = xml.len() as f64 * 8.0 / bits(&xml);
        let prose_ratio = prose.len() as f64 * 8.0 / bits(&prose);
        assert!(xml_ratio > prose_ratio, "{xml_ratio} !> {prose_ratio}");
    }
}
