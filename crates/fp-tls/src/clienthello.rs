//! The TLS ClientHello message: construction, wire serialisation, parsing.
//!
//! Implements the real TLS 1.2/1.3 framing (record layer → handshake layer →
//! ClientHello body) so the parser works on genuine captures, while staying
//! deliberately narrow: only ClientHello, only what JA3/JA4 need. In
//! smoltcp's spirit the omissions are explicit: no other handshake types, no
//! record fragmentation/coalescing, extension bodies are kept opaque except
//! for the three JA3 inputs (SNI, supported groups, EC point formats).
//!
//! Writes are plain big-endian appends to a `Vec<u8>`; reads go through
//! a small slice reader whose every read is bounds-checked and fails with
//! [`ParseError::Truncated`] — the parser faces adversary bytes, so no
//! input may make it panic.

/// TLS GREASE values (RFC 8701): `0x?a?a`. They appear in ciphers,
/// extensions and groups of Chromium/Safari hellos and must be ignored by
/// fingerprinting.
pub fn is_grease(v: u16) -> bool {
    (v & 0x0f0f) == 0x0a0a && (v >> 12) == ((v >> 4) & 0x0f)
}

/// All sixteen GREASE values.
pub const GREASE_VALUES: [u16; 16] = [
    0x0a0a, 0x1a1a, 0x2a2a, 0x3a3a, 0x4a4a, 0x5a5a, 0x6a6a, 0x7a7a, 0x8a8a, 0x9a9a, 0xaaaa, 0xbaba,
    0xcaca, 0xdada, 0xeaea, 0xfafa,
];

/// Well-known extension type codes used by the profiles.
pub mod ext_type {
    pub const SERVER_NAME: u16 = 0;
    pub const STATUS_REQUEST: u16 = 5;
    pub const SUPPORTED_GROUPS: u16 = 10;
    pub const EC_POINT_FORMATS: u16 = 11;
    pub const SIGNATURE_ALGORITHMS: u16 = 13;
    pub const ALPN: u16 = 16;
    pub const SIGNED_CERT_TIMESTAMP: u16 = 18;
    pub const PADDING: u16 = 21;
    pub const EXTENDED_MASTER_SECRET: u16 = 23;
    pub const COMPRESS_CERTIFICATE: u16 = 27;
    pub const RECORD_SIZE_LIMIT: u16 = 28;
    pub const SESSION_TICKET: u16 = 35;
    pub const DELEGATED_CREDENTIAL: u16 = 34;
    pub const PRE_SHARED_KEY_MODES: u16 = 45;
    pub const SUPPORTED_VERSIONS: u16 = 43;
    pub const KEY_SHARE: u16 = 51;
    pub const RENEGOTIATION_INFO: u16 = 65281;
    pub const APPLICATION_SETTINGS: u16 = 17513;
}

/// One extension: type code plus opaque body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Extension {
    pub typ: u16,
    pub body: Vec<u8>,
}

impl Extension {
    /// An empty-bodied extension.
    pub fn empty(typ: u16) -> Extension {
        Extension {
            typ,
            body: Vec::new(),
        }
    }

    /// `server_name` extension for a DNS hostname.
    pub fn sni(host: &str) -> Extension {
        let name = host.as_bytes();
        let mut body = Vec::with_capacity(name.len() + 5);
        put_u16(&mut body, name.len() as u16 + 3); // server_name_list length
        body.push(0); // name_type: host_name
        put_u16(&mut body, name.len() as u16);
        body.extend_from_slice(name);
        Extension {
            typ: ext_type::SERVER_NAME,
            body,
        }
    }

    /// `supported_groups` extension.
    pub fn supported_groups(groups: &[u16]) -> Extension {
        let mut body = Vec::with_capacity(groups.len() * 2 + 2);
        put_u16(&mut body, groups.len() as u16 * 2);
        for g in groups {
            put_u16(&mut body, *g);
        }
        Extension {
            typ: ext_type::SUPPORTED_GROUPS,
            body,
        }
    }

    /// `ec_point_formats` extension.
    pub fn ec_point_formats(formats: &[u8]) -> Extension {
        let mut body = Vec::with_capacity(formats.len() + 1);
        body.push(formats.len() as u8);
        body.extend_from_slice(formats);
        Extension {
            typ: ext_type::EC_POINT_FORMATS,
            body,
        }
    }
}

/// A parsed (or constructed) ClientHello.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientHello {
    /// `legacy_version` field (0x0303 for every modern stack).
    pub version: u16,
    /// 32 bytes of client randomness.
    pub random: [u8; 32],
    /// Legacy session id (Chrome sends 32 random bytes).
    pub session_id: Vec<u8>,
    /// Offered cipher suites, in order, GREASE included.
    pub cipher_suites: Vec<u16>,
    /// Compression methods (always `[0]` in practice).
    pub compression: Vec<u8>,
    /// Extensions in order, GREASE included.
    pub extensions: Vec<Extension>,
}

/// Parse failures — each names the layer that was malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Fewer bytes than the active length field promised.
    Truncated(&'static str),
    /// Record layer content type was not handshake (22).
    NotHandshake(u8),
    /// Handshake type was not ClientHello (1).
    NotClientHello(u8),
    /// A nested length field contradicted its container.
    BadLength(&'static str),
    /// Trailing bytes after the ClientHello body.
    TrailingBytes(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated(what) => write!(f, "truncated {what}"),
            ParseError::NotHandshake(t) => write!(f, "record content type {t} is not handshake"),
            ParseError::NotClientHello(t) => write!(f, "handshake type {t} is not ClientHello"),
            ParseError::BadLength(what) => write!(f, "inconsistent length in {what}"),
            ParseError::TrailingBytes(n) => write!(f, "{n} trailing bytes after ClientHello"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Append `v` big-endian (network order, as every TLS length and code).
fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// A read cursor over wire bytes. Every read names the field it reads and
/// fails with [`ParseError::Truncated`] naming it, instead of reading past
/// the end.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ParseError> {
        let (head, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(ParseError::Truncated(what))?;
        self.rest = rest;
        Ok(head)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ParseError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ParseError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }
}

impl ClientHello {
    /// Serialise to the full wire form: TLS record header + handshake
    /// header + body.
    pub fn to_wire(&self) -> Vec<u8> {
        let body = self.body_bytes();
        let mut out = Vec::with_capacity(body.len() + 9);
        // Record layer.
        out.push(22); // handshake
        put_u16(&mut out, 0x0301); // record version, historically TLS 1.0
        put_u16(&mut out, body.len() as u16 + 4);
        // Handshake layer.
        out.push(1); // client_hello
        out.extend_from_slice(&(body.len() as u32).to_be_bytes()[1..]); // u24 length
        out.extend_from_slice(&body);
        out
    }

    fn body_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(512);
        put_u16(&mut b, self.version);
        b.extend_from_slice(&self.random);
        b.push(self.session_id.len() as u8);
        b.extend_from_slice(&self.session_id);
        put_u16(&mut b, self.cipher_suites.len() as u16 * 2);
        for c in &self.cipher_suites {
            put_u16(&mut b, *c);
        }
        b.push(self.compression.len() as u8);
        b.extend_from_slice(&self.compression);
        let ext_len: usize = self.extensions.iter().map(|e| 4 + e.body.len()).sum();
        put_u16(&mut b, ext_len as u16);
        for e in &self.extensions {
            put_u16(&mut b, e.typ);
            put_u16(&mut b, e.body.len() as u16);
            b.extend_from_slice(&e.body);
        }
        b
    }

    /// Parse from the full wire form produced by [`ClientHello::to_wire`]
    /// (or by a real client, provided the hello fits one record).
    pub fn parse(wire: &[u8]) -> Result<ClientHello, ParseError> {
        let mut record = Reader::new(wire);
        let content_type = record.u8("record header")?;
        if content_type != 22 {
            return Err(ParseError::NotHandshake(content_type));
        }
        let _record_version = record.u16("record header")?;
        let record_len = record.u16("record header")? as usize;
        let mut handshake = Reader::new(record.bytes(record_len, "record body")?);
        if record.remaining() > 0 {
            return Err(ParseError::TrailingBytes(record.remaining()));
        }
        let hs_type = handshake.u8("handshake header")?;
        if hs_type != 1 {
            return Err(ParseError::NotClientHello(hs_type));
        }
        let hs_len = (handshake.u8("handshake header")? as usize) << 16
            | handshake.u16("handshake header")? as usize;
        if hs_len != handshake.remaining() {
            return Err(ParseError::BadLength("handshake length vs record length"));
        }
        Self::parse_body(handshake)
    }

    fn parse_body(mut buf: Reader<'_>) -> Result<ClientHello, ParseError> {
        let version = buf.u16("version/random")?;
        let mut random = [0u8; 32];
        random.copy_from_slice(buf.bytes(32, "version/random")?);

        let sid_len = buf.u8("session id length")? as usize;
        let session_id = buf.bytes(sid_len, "session id")?.to_vec();

        let cs_len = buf.u16("cipher suites length")? as usize;
        if !cs_len.is_multiple_of(2) {
            return Err(ParseError::BadLength("cipher suites (odd)"));
        }
        let cipher_suites = buf
            .bytes(cs_len, "cipher suites")?
            .chunks_exact(2)
            .map(|c| u16::from_be_bytes([c[0], c[1]]))
            .collect();

        let comp_len = buf.u8("compression length")? as usize;
        let compression = buf.bytes(comp_len, "compression methods")?.to_vec();

        let mut extensions = Vec::new();
        if buf.remaining() > 0 {
            let ext_total = buf.u16("extensions length")? as usize;
            if buf.remaining() != ext_total {
                return Err(ParseError::BadLength("extensions block"));
            }
            while buf.remaining() > 0 {
                let typ = buf.u16("extension header")?;
                let len = buf.u16("extension header")? as usize;
                extensions.push(Extension {
                    typ,
                    body: buf.bytes(len, "extension body")?.to_vec(),
                });
            }
        }

        Ok(ClientHello {
            version,
            random,
            session_id,
            cipher_suites,
            compression,
            extensions,
        })
    }

    /// Supported groups (curves), if the extension is present — a JA3 input.
    pub fn supported_groups(&self) -> Vec<u16> {
        let Some(ext) = self
            .extensions
            .iter()
            .find(|e| e.typ == ext_type::SUPPORTED_GROUPS)
        else {
            return Vec::new();
        };
        let mut buf = Reader::new(&ext.body);
        let Ok(len) = buf.u16("supported groups length") else {
            return Vec::new();
        };
        let len = len as usize / 2;
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let Ok(group) = buf.u16("supported group") else {
                break;
            };
            out.push(group);
        }
        out
    }

    /// EC point formats, if present — a JA3 input.
    pub fn ec_point_formats(&self) -> Vec<u8> {
        let Some(ext) = self
            .extensions
            .iter()
            .find(|e| e.typ == ext_type::EC_POINT_FORMATS)
        else {
            return Vec::new();
        };
        if ext.body.is_empty() {
            return Vec::new();
        }
        let len = ext.body[0] as usize;
        ext.body[1..].iter().take(len).copied().collect()
    }

    /// The SNI hostname, if present.
    pub fn server_name(&self) -> Option<String> {
        let ext = self
            .extensions
            .iter()
            .find(|e| e.typ == ext_type::SERVER_NAME)?;
        let mut buf = Reader::new(&ext.body);
        let _list_len = buf.u16("server name list length").ok()?;
        if buf.u8("server name type").ok()? != 0 {
            return None;
        }
        let name_len = buf.u16("server name length").ok()? as usize;
        String::from_utf8(buf.bytes(name_len, "server name").ok()?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hello() -> ClientHello {
        ClientHello {
            version: 0x0303,
            random: [7u8; 32],
            session_id: vec![9u8; 32],
            cipher_suites: vec![0x1a1a, 0x1301, 0x1302, 0xc02b],
            compression: vec![0],
            extensions: vec![
                Extension::sni("honey.example.com"),
                Extension::supported_groups(&[0x2a2a, 29, 23, 24]),
                Extension::ec_point_formats(&[0]),
                Extension::empty(ext_type::EXTENDED_MASTER_SECRET),
            ],
        }
    }

    #[test]
    fn wire_roundtrip() {
        let hello = sample_hello();
        let wire = hello.to_wire();
        let parsed = ClientHello::parse(&wire).unwrap();
        assert_eq!(parsed, hello);
    }

    #[test]
    fn accessors() {
        let hello = sample_hello();
        assert_eq!(hello.server_name().as_deref(), Some("honey.example.com"));
        assert_eq!(hello.supported_groups(), vec![0x2a2a, 29, 23, 24]);
        assert_eq!(hello.ec_point_formats(), vec![0]);
    }

    #[test]
    fn grease_detection() {
        for v in GREASE_VALUES {
            assert!(is_grease(v), "{v:#06x}");
        }
        assert!(!is_grease(0x1301));
        assert!(!is_grease(0x0a1a));
        assert!(!is_grease(29));
    }

    #[test]
    fn rejects_non_handshake_record() {
        let mut wire = sample_hello().to_wire();
        wire[0] = 23; // application data
        assert_eq!(ClientHello::parse(&wire), Err(ParseError::NotHandshake(23)));
    }

    #[test]
    fn rejects_non_clienthello_handshake() {
        let mut wire = sample_hello().to_wire();
        wire[5] = 2; // server_hello
        assert_eq!(
            ClientHello::parse(&wire),
            Err(ParseError::NotClientHello(2))
        );
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let wire = sample_hello().to_wire();
        for cut in 0..wire.len() {
            let r = ClientHello::parse(&wire[..cut]);
            assert!(r.is_err(), "parse of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut wire = sample_hello().to_wire();
        wire.push(0);
        assert!(matches!(
            ClientHello::parse(&wire),
            Err(ParseError::TrailingBytes(_))
        ));
    }

    #[test]
    fn rejects_inconsistent_handshake_length() {
        let mut wire = sample_hello().to_wire();
        wire[8] = wire[8].wrapping_add(1); // handshake length low byte
        assert!(matches!(
            ClientHello::parse(&wire),
            Err(ParseError::BadLength(_)) | Err(ParseError::Truncated(_))
        ));
    }

    #[test]
    fn empty_extension_block_is_valid() {
        let hello = ClientHello {
            version: 0x0303,
            random: [0; 32],
            session_id: Vec::new(),
            cipher_suites: vec![0x002f],
            compression: vec![0],
            extensions: Vec::new(),
        };
        let parsed = ClientHello::parse(&hello.to_wire()).unwrap();
        assert_eq!(parsed, hello);
        assert!(parsed.supported_groups().is_empty());
        assert!(parsed.server_name().is_none());
    }
}
