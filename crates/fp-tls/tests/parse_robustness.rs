//! `ClientHello::parse` is the one wire parser that faces adversary
//! bytes: a hello that crashed it would be the cheapest probe a bot could
//! send. It must never panic — on arbitrary bytes, on arbitrary bytes
//! behind a well-formed record header, or on any truncation or
//! single-byte mutation of a real profile's wire — and any hello it
//! accepts must survive re-serialisation: `parse(to_wire(h)) == h`.

use fp_tls::{ClientHello, TlsClientKind};
use fp_types::Splittable;
use proptest::prelude::*;

/// Parse `wire` (a panic fails the test); an accepted hello must
/// round-trip through its own wire form.
fn parse_checked(wire: &[u8]) -> Result<(), String> {
    let Ok(hello) = ClientHello::parse(wire) else {
        return Ok(());
    };
    match ClientHello::parse(&hello.to_wire()) {
        Ok(again) if again == hello => Ok(()),
        again => Err(format!(
            "accepted {wire:02x?} as {hello:?}, re-parsed as {again:?}"
        )),
    }
}

/// Every profile's wire, as its stack sends it.
fn profile_wires() -> Vec<(TlsClientKind, Vec<u8>)> {
    let mut rng = Splittable::new(0x7e11);
    let mut wire = |kind: TlsClientKind| kind.client_hello("honey.example.com", &mut rng).to_wire();
    TlsClientKind::ALL.map(|kind| (kind, wire(kind))).to_vec()
}

/// `body` behind a record and handshake header whose lengths agree with
/// it, so the body parser sees the arbitrary bytes.
fn framed(body: &[u8]) -> Vec<u8> {
    let hs_len = (body.len() as u32).to_be_bytes();
    let record_len = (body.len() as u16 + 4).to_be_bytes();
    let mut wire = vec![22, 0x03, 0x01, record_len[0], record_len[1], 1];
    wire.extend_from_slice(&hs_len[1..]);
    wire.extend_from_slice(body);
    wire
}

#[test]
fn every_truncation_of_every_profile_is_rejected() {
    for (kind, wire) in profile_wires() {
        assert!(ClientHello::parse(&wire).is_ok(), "{kind:?} whole");
        for cut in 0..wire.len() {
            assert!(
                ClientHello::parse(&wire[..cut]).is_err(),
                "{kind:?}: {cut}-byte prefix parsed"
            );
        }
    }
}

#[test]
fn every_single_byte_mutation_of_every_profile_parses_cleanly() {
    for (kind, wire) in profile_wires() {
        let mut mutated = wire.clone();
        for pos in 0..wire.len() {
            for value in 0..=u8::MAX {
                mutated[pos] = value;
                if let Err(e) = parse_checked(&mutated) {
                    panic!("{kind:?}, byte {pos} = {value:#04x}: {e}");
                }
            }
            mutated[pos] = wire[pos];
        }
    }
}

proptest! {
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        parse_checked(&bytes)?;
    }

    #[test]
    fn parse_never_panics_on_arbitrary_framed_bodies(
        body in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        parse_checked(&framed(&body))?;
    }
}
