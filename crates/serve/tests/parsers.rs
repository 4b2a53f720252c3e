//! Seeded randomized inputs for the two parsers that read the network:
//! `http::read_request` and `RunRequest::parse`. Truncated, mutated,
//! non-UTF-8, random and oversized inputs must each give `Ok` or `Err`
//! without panicking, and a line past its cap must give `InvalidData`.

use std::io::ErrorKind;
use std::time::{Duration, Instant};

use ndpb_serve::http::{read_request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use ndpb_serve::jobs::RunRequest;
use ndpb_sim::SimRng;

/// Random inputs per parser.
const CASES: usize = 4000;

/// Well-formed requests, the material the mutations start from.
const REQUESTS: &[&[u8]] = &[
    b"POST /run HTTP/1.1\r\nContent-Length: 26\r\n\r\n{\"app\":\"ll\",\"design\":\"C\"}",
    b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n",
    b"GET /job/3?x=1 HTTP/1.0\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
    b"run {\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"W+GA\"],\"scale\":\"tiny\"}\n",
    b"healthz\n",
];

/// Well-formed `/run` bodies.
const BODIES: &[&str] = &[
    "{\"app\":\"ll\"}",
    "{\"apps\":[\"ll\",\"pr\"],\"designs\":[\"C\",\"h\",\"W+Hot\"],\"scale\":\"small\",\"audit\":\"full\"}",
    "{\"app\":\"tree\",\"design\":\"O+GA\",\"scale\":\"tiny\",\"audit\":\"off\",\"shards\":4}",
];

/// One random variation of `base`: truncated, overwritten with random
/// bytes (often not UTF-8), spliced with a repeat of itself, or
/// replaced by random bytes.
fn mutate(rng: &mut SimRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.next_below(4) {
        0 => bytes.truncate(rng.next_index(base.len() + 1)),
        1 => {
            for _ in 0..=rng.next_index(4) {
                let at = rng.next_index(bytes.len());
                bytes[at] = rng.next_u64() as u8;
            }
        }
        2 => {
            let at = rng.next_index(bytes.len() + 1);
            let from = rng.next_index(base.len());
            bytes.splice(at..at, base[from..].iter().copied());
        }
        _ => {
            bytes = (0..rng.next_index(512))
                .map(|_| rng.next_u64() as u8)
                .collect();
        }
    }
    bytes
}

#[test]
fn random_requests_never_panic_the_reader() {
    let mut rng = SimRng::new(0x5EED);
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..CASES {
        let base = REQUESTS[rng.next_index(REQUESTS.len())];
        let input = mutate(&mut rng, base);
        // Read on until EOF or an error, as a keep-alive connection does.
        let mut reader = &input[..];
        loop {
            match read_request(&mut reader) {
                Ok(Some(_)) => parsed += 1,
                Ok(None) => break,
                Err(_) => {
                    refused += 1;
                    break;
                }
            }
        }
    }
    // Both outcomes occur, so the inputs reach past the first check.
    assert!(
        parsed > CASES / 10 && refused > CASES / 10,
        "{parsed} parsed, {refused} refused"
    );
}

#[test]
fn random_run_bodies_never_panic_the_parser() {
    let mut rng = SimRng::new(7919);
    let mut accepted = 0;
    for _ in 0..CASES {
        let base = BODIES[rng.next_index(BODIES.len())];
        let bytes = mutate(&mut rng, base.as_bytes());
        // `read_request` hands on only UTF-8 bodies; the lossy decode
        // turns every invalid byte into a multi-byte scalar.
        if let Ok(req) = RunRequest::parse(&String::from_utf8_lossy(&bytes)) {
            accepted += 1;
            assert!(!req.points().is_empty());
        }
    }
    assert!(
        accepted > 0 && accepted < CASES,
        "{accepted} of {CASES} accepted"
    );
}

/// `n` bytes of one random lowercase letter.
fn filler(rng: &mut SimRng, n: usize) -> Vec<u8> {
    vec![b'a' + rng.next_below(26) as u8; n]
}

fn invalid_data(input: &[u8]) -> bool {
    matches!(read_request(&mut &input[..]), Err(e) if e.kind() == ErrorKind::InvalidData)
}

#[test]
fn a_line_past_its_cap_is_invalid_data() {
    let mut rng = SimRng::new(24301);
    for _ in 0..8 {
        let extra = rng.next_index(64);
        // The first line: exactly at the cap it is a line-protocol
        // command, one byte past it is refused.
        let mut line = filler(&mut rng, MAX_BODY_BYTES - 1);
        line.push(b'\n');
        assert!(matches!(read_request(&mut &line[..]), Ok(Some(_))));
        line.splice(0..0, filler(&mut rng, 1 + extra));
        assert!(invalid_data(&line), "first line of {} bytes", line.len());

        // One header line past the header cap.
        let mut req = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        req.extend(filler(&mut rng, MAX_HEADER_BYTES + extra));
        req.extend(b"\r\n\r\n");
        assert!(invalid_data(&req));

        // Header lines that pass the cap only together.
        let mut req = b"GET /healthz HTTP/1.1\r\n".to_vec();
        let mut header_bytes = 0;
        while header_bytes <= MAX_HEADER_BYTES {
            let mut h = b"X-Pad: ".to_vec();
            h.extend(filler(&mut rng, 100 + extra));
            h.extend(b"\r\n");
            header_bytes += h.len();
            req.extend(h);
        }
        req.extend(b"\r\n");
        assert!(invalid_data(&req));

        // A declared body past the body cap.
        let req = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1 + extra
        );
        assert!(invalid_data(req.as_bytes()));
    }
}

#[test]
fn body_sized_json_parses_in_one_pass_and_bounded_depth() {
    // A string as long as a body may be: one pass over its bytes.
    let long = format!("{{\"app\":\"{}\"}}", "ü".repeat(MAX_BODY_BYTES / 2 - 8));
    let started = Instant::now();
    assert!(RunRequest::parse(&long)
        .unwrap_err()
        .contains("unknown app"));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a 1 MiB body took {:?}",
        started.elapsed()
    );
    // Nesting as deep as a body may be must not overflow the stack of
    // the thread that parses it.
    let deep = "[".repeat(MAX_BODY_BYTES);
    assert!(RunRequest::parse(&deep).is_err());
}
