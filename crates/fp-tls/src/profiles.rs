//! Per-client ClientHello profiles.
//!
//! Each TLS stack greets servers with a characteristic hello. Browsers
//! randomise GREASE placement and key-share payloads per connection, but the
//! JA3 projection (GREASE-stripped types/order) is stable per stack — that
//! stability is what makes JA3 a fingerprint and what makes a UA↔JA3
//! mismatch a cross-layer inconsistency.

use crate::clienthello::{ext_type, ClientHello, Extension, GREASE_VALUES};
use crate::ja3::ja3_digest;
use fp_types::Splittable;
use std::sync::OnceLock;

/// The TLS client stacks the campaign models.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TlsClientKind {
    /// Chromium (Chrome, Edge, Samsung Internet, headless Chrome alike —
    /// headless Chrome's hello is identical to headful, which is exactly
    /// why JA3 alone cannot catch it and consistency with the UA matters).
    Chromium,
    /// Firefox (NSS).
    Firefox,
    /// Safari / any WebKit client on Apple platforms (incl. CriOS).
    Safari,
    /// Go `crypto/tls` default — common bot-framework stack.
    GoHttp,
    /// Python `requests` via OpenSSL — the other common bot stack.
    PythonRequests,
}

impl TlsClientKind {
    /// All stacks.
    pub const ALL: [TlsClientKind; 5] = [
        TlsClientKind::Chromium,
        TlsClientKind::Firefox,
        TlsClientKind::Safari,
        TlsClientKind::GoHttp,
        TlsClientKind::PythonRequests,
    ];

    /// Build a fresh ClientHello for this stack. Randomness covers what
    /// genuinely varies per connection (random, session id, GREASE choice);
    /// the JA3 digest is invariant across draws.
    pub fn client_hello(self, sni: &str, rng: &mut Splittable) -> ClientHello {
        let mut random = [0u8; 32];
        for b in &mut random {
            *b = rng.next_u64() as u8;
        }
        let mut session_id = vec![0u8; 32];
        for b in &mut session_id {
            *b = rng.next_u64() as u8;
        }
        let grease = |rng: &mut Splittable| GREASE_VALUES[rng.next_below(16) as usize];

        let (cipher_suites, extensions) = match self {
            TlsClientKind::Chromium => {
                let g1 = grease(rng);
                let g2 = grease(rng);
                let mut ciphers = vec![g1];
                ciphers.extend([
                    0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0xc02c, 0xc030, 0xcca9, 0xcca8, 0xc013,
                    0xc014, 0x009c, 0x009d, 0x002f, 0x0035,
                ]);
                let exts = vec![
                    Extension::empty(g2),
                    Extension::sni(sni),
                    Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
                    Extension::empty(ext_type::RENEGOTIATION_INFO),
                    Extension::supported_groups(&[grease(rng), 29, 23, 24]),
                    Extension::ec_point_formats(&[0]),
                    Extension::empty(ext_type::SESSION_TICKET),
                    Extension::empty(ext_type::ALPN),
                    Extension::empty(ext_type::STATUS_REQUEST),
                    Extension::empty(ext_type::SIGNATURE_ALGORITHMS),
                    Extension::empty(ext_type::SIGNED_CERT_TIMESTAMP),
                    Extension::empty(ext_type::KEY_SHARE),
                    Extension::empty(ext_type::PRE_SHARED_KEY_MODES),
                    Extension::empty(ext_type::SUPPORTED_VERSIONS),
                    Extension::empty(ext_type::COMPRESS_CERTIFICATE),
                    Extension::empty(ext_type::APPLICATION_SETTINGS),
                    Extension::empty(ext_type::PADDING),
                ];
                (ciphers, exts)
            }
            TlsClientKind::Firefox => {
                let ciphers = vec![
                    0x1301, 0x1303, 0x1302, 0xc02b, 0xc02f, 0xcca9, 0xcca8, 0xc02c, 0xc030, 0xc00a,
                    0xc009, 0xc013, 0xc014, 0x0033, 0x0039, 0x002f, 0x0035,
                ];
                let exts = vec![
                    Extension::sni(sni),
                    Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
                    Extension::empty(ext_type::RENEGOTIATION_INFO),
                    Extension::supported_groups(&[29, 23, 24, 25, 256, 257]),
                    Extension::ec_point_formats(&[0]),
                    Extension::empty(ext_type::SESSION_TICKET),
                    Extension::empty(ext_type::ALPN),
                    Extension::empty(ext_type::STATUS_REQUEST),
                    Extension::empty(ext_type::DELEGATED_CREDENTIAL),
                    Extension::empty(ext_type::KEY_SHARE),
                    Extension::empty(ext_type::SUPPORTED_VERSIONS),
                    Extension::empty(ext_type::SIGNATURE_ALGORITHMS),
                    Extension::empty(ext_type::PRE_SHARED_KEY_MODES),
                    Extension::empty(ext_type::RECORD_SIZE_LIMIT),
                    Extension::empty(ext_type::PADDING),
                ];
                (ciphers, exts)
            }
            TlsClientKind::Safari => {
                let g1 = grease(rng);
                let g2 = grease(rng);
                let mut ciphers = vec![g1];
                ciphers.extend([
                    0x1301, 0x1302, 0x1303, 0xc02c, 0xc02b, 0xcca9, 0xc030, 0xc02f, 0xcca8, 0xc00a,
                    0xc009, 0xc014, 0xc013, 0x009d, 0x009c, 0x0035, 0x002f, 0xc008, 0xc012, 0x000a,
                ]);
                let exts = vec![
                    Extension::empty(g2),
                    Extension::sni(sni),
                    Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
                    Extension::empty(ext_type::RENEGOTIATION_INFO),
                    Extension::supported_groups(&[grease(rng), 29, 23, 24, 25]),
                    Extension::ec_point_formats(&[0]),
                    Extension::empty(ext_type::ALPN),
                    Extension::empty(ext_type::STATUS_REQUEST),
                    Extension::empty(ext_type::SIGNATURE_ALGORITHMS),
                    Extension::empty(ext_type::SIGNED_CERT_TIMESTAMP),
                    Extension::empty(ext_type::KEY_SHARE),
                    Extension::empty(ext_type::PRE_SHARED_KEY_MODES),
                    Extension::empty(ext_type::SUPPORTED_VERSIONS),
                    Extension::empty(ext_type::COMPRESS_CERTIFICATE),
                    Extension::empty(ext_type::PADDING),
                ];
                (ciphers, exts)
            }
            TlsClientKind::GoHttp => {
                let ciphers = vec![
                    0xc02f, 0xc030, 0xc02b, 0xc02c, 0xcca8, 0xcca9, 0xc013, 0xc009, 0xc014, 0xc00a,
                    0x009c, 0x009d, 0x002f, 0x0035, 0xc012, 0x000a, 0x1301, 0x1302, 0x1303,
                ];
                let exts = vec![
                    Extension::sni(sni),
                    Extension::empty(ext_type::STATUS_REQUEST),
                    Extension::supported_groups(&[29, 23, 24, 25]),
                    Extension::ec_point_formats(&[0]),
                    Extension::empty(ext_type::SIGNATURE_ALGORITHMS),
                    Extension::empty(ext_type::RENEGOTIATION_INFO),
                    Extension::empty(ext_type::SIGNED_CERT_TIMESTAMP),
                    Extension::empty(ext_type::SUPPORTED_VERSIONS),
                    Extension::empty(ext_type::KEY_SHARE),
                ];
                (ciphers, exts)
            }
            TlsClientKind::PythonRequests => {
                let ciphers = vec![
                    0x1302, 0x1303, 0x1301, 0xc02c, 0xc030, 0x009f, 0xcca9, 0xcca8, 0xccaa, 0xc02b,
                    0xc02f, 0x009e, 0xc024, 0xc028, 0x006b, 0xc023, 0xc027, 0x0067, 0xc00a, 0xc014,
                    0x0039, 0xc009, 0xc013, 0x0033, 0x009d, 0x009c, 0x003d, 0x003c, 0x0035, 0x002f,
                    0x00ff,
                ];
                let exts = vec![
                    Extension::sni(sni),
                    Extension::ec_point_formats(&[0, 1, 2]),
                    Extension::supported_groups(&[29, 23, 30, 25, 24]),
                    Extension::empty(ext_type::SESSION_TICKET),
                    Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
                    Extension::empty(ext_type::SIGNATURE_ALGORITHMS),
                    Extension::empty(ext_type::SUPPORTED_VERSIONS),
                    Extension::empty(ext_type::PRE_SHARED_KEY_MODES),
                    Extension::empty(ext_type::KEY_SHARE),
                ];
                (ciphers, exts)
            }
        };

        ClientHello {
            version: 0x0303,
            random,
            session_id,
            cipher_suites,
            compression: vec![0],
            extensions,
        }
    }

    /// The stack's stable JA3 digest (computed once; GREASE-independent).
    pub fn ja3(self) -> &'static str {
        static DIGESTS: OnceLock<[String; 5]> = OnceLock::new();
        let all = DIGESTS.get_or_init(|| {
            let mut rng = Splittable::new(0x7152);
            TlsClientKind::ALL.map(|k| ja3_digest(&k.client_hello("probe.example", &mut rng)))
        });
        let idx = TlsClientKind::ALL.iter().position(|k| *k == self).unwrap();
        &all[idx]
    }

    /// The stack's stable JA4-style descriptor.
    pub fn ja4(self) -> &'static str {
        static DESCS: OnceLock<[String; 5]> = OnceLock::new();
        let all = DESCS.get_or_init(|| {
            let mut rng = Splittable::new(0x7453);
            TlsClientKind::ALL
                .map(|k| crate::ja3::ja4_descriptor(&k.client_hello("probe.example", &mut rng)))
        });
        let idx = TlsClientKind::ALL.iter().position(|k| *k == self).unwrap();
        &all[idx]
    }

    /// The TLS facet a request carried by this stack presents — the
    /// JA3/JA4 digests of its synthesized ClientHello, interned on the
    /// stack's first facet and reused after.
    pub fn facet(self) -> fp_types::TlsFacet {
        static FACETS: [OnceLock<fp_types::TlsFacet>; TlsClientKind::ALL.len()] =
            [const { OnceLock::new() }; TlsClientKind::ALL.len()];
        let idx = TlsClientKind::ALL.iter().position(|k| *k == self).unwrap();
        *FACETS[idx].get_or_init(|| {
            fp_types::TlsFacet::observed(fp_types::sym(self.ja3()), fp_types::sym(self.ja4()))
        })
    }

    /// Which stack a given UA-parser browser family genuinely uses.
    pub fn for_ua_browser(ua_browser: &str) -> Option<TlsClientKind> {
        match ua_browser {
            "Chrome" | "Chrome Mobile" | "Edge" | "Samsung Internet" | "MiuiBrowser" => {
                Some(TlsClientKind::Chromium)
            }
            "Firefox" => Some(TlsClientKind::Firefox),
            "Safari" | "Mobile Safari" | "Chrome Mobile iOS" | "Firefox iOS" => {
                Some(TlsClientKind::Safari)
            }
            _ => None,
        }
    }
}

/// The JA3 digest a truthful client with this UA-parser browser family
/// would present — the cross-layer consistency anchor.
pub fn expected_ja3_for_ua_browser(ua_browser: &str) -> Option<&'static str> {
    TlsClientKind::for_ua_browser(ua_browser).map(|k| k.ja3())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clienthello::ClientHello;

    #[test]
    fn ja3_is_stable_across_draws() {
        let mut rng = Splittable::new(9);
        for kind in TlsClientKind::ALL {
            let a = ja3_digest(&kind.client_hello("a.example", &mut rng));
            let b = ja3_digest(&kind.client_hello("b.example", &mut rng));
            assert_eq!(a, b, "{kind:?} JA3 must not vary with GREASE/SNI");
            assert_eq!(a, kind.ja3());
        }
    }

    #[test]
    fn stacks_have_distinct_ja3() {
        let mut seen = std::collections::HashSet::new();
        for kind in TlsClientKind::ALL {
            assert!(seen.insert(kind.ja3().to_owned()), "{kind:?} collides");
        }
    }

    #[test]
    fn hellos_roundtrip_the_wire() {
        let mut rng = Splittable::new(10);
        for kind in TlsClientKind::ALL {
            let hello = kind.client_hello("wire.example", &mut rng);
            let parsed = ClientHello::parse(&hello.to_wire()).unwrap();
            assert_eq!(parsed, hello, "{kind:?}");
            assert_eq!(parsed.server_name().as_deref(), Some("wire.example"));
        }
    }

    #[test]
    fn ua_browser_mapping() {
        assert_eq!(
            TlsClientKind::for_ua_browser("Chrome"),
            Some(TlsClientKind::Chromium)
        );
        assert_eq!(
            TlsClientKind::for_ua_browser("Mobile Safari"),
            Some(TlsClientKind::Safari)
        );
        assert_eq!(
            TlsClientKind::for_ua_browser("Chrome Mobile iOS"),
            Some(TlsClientKind::Safari),
            "CriOS is WebKit, so its TLS is Apple's"
        );
        assert_eq!(TlsClientKind::for_ua_browser("Other"), None);
    }

    #[test]
    fn go_stack_mismatches_every_browser_ua() {
        let go = TlsClientKind::GoHttp.ja3();
        for ua in ["Chrome", "Firefox", "Mobile Safari", "Safari", "Edge"] {
            assert_ne!(expected_ja3_for_ua_browser(ua), Some(go), "{ua}");
        }
    }
}
