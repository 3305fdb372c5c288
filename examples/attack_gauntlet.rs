//! Attack gauntlet: every attack scenario from Sections II-C and III of
//! the paper, executed against the functional SecDDR model, with the
//! detection outcome printed next to the paper's claim.
//!
//! Run with: `cargo run --release --example attack_gauntlet`

use secddr::functional::attacks::{
    AddressCorruptor, BusReplay, CommandConverter, DataTamperer, EmacTamperer, WriteDropper,
};
use secddr::functional::attest::{
    host_ephemeral, host_verify, rank_respond, CertificateAuthority, RankIdentity,
};
use secddr::functional::dimm::WriteOutcome;
use secddr::functional::{EncryptionMode, SecureChannel};

const LINE: u64 = 0x8_0000;

/// Prints one attack class's outcome and notes it in `missed` when the
/// attack went undetected.
fn report(missed: &mut Vec<&'static str>, label: &'static str, detected: bool) {
    let verdict = if detected {
        "DETECTED  ✓"
    } else {
        missed.push(label);
        "UNDETECTED  ✗"
    };
    println!("{label:<42}{verdict}");
}

fn main() {
    println!("== SecDDR attack gauntlet ==");
    println!("(paper: Sections II-C, III-A, III-B, III-C, III-F)\n");
    let mut missed = Vec::new();

    // 1. Bus replay of a stale (data, E-MAC) tuple.
    {
        let mut ch = SecureChannel::with_interposer(EncryptionMode::Xts, 1, BusReplay::new(0, 1));
        ch.write(LINE, &[1; 64]);
        let _ = ch.read(LINE);
        ch.write(LINE, &[2; 64]);
        let detected = ch.read(LINE).is_err();
        report(&mut missed, "1. bus replay of stale (data, MAC):", detected);
    }

    // 2. Row-redirected write (Figure 3's stale-data attack).
    {
        let mut ch = SecureChannel::with_interposer(
            EncryptionMode::Xts,
            2,
            AddressCorruptor::redirect_row(0, 0x100),
        );
        let outcome = ch.write(LINE, &[3; 64]);
        let detected = outcome == WriteOutcome::EwcrcRejected && ch.rank.ewcrc_alerts == 1;
        report(
            &mut missed,
            "2. activate redirected to another row:",
            detected,
        );
    }

    // 3. Column-redirected write.
    {
        let mut ch = SecureChannel::with_interposer(
            EncryptionMode::Xts,
            3,
            AddressCorruptor::redirect_column(0, 0x4),
        );
        let detected = ch.write(LINE, &[4; 64]) == WriteOutcome::EwcrcRejected;
        report(
            &mut missed,
            "3. write redirected to another column:",
            detected,
        );
    }

    // 4. Dropped write.
    {
        let mut ch = SecureChannel::with_interposer(EncryptionMode::Xts, 4, WriteDropper::new(1));
        ch.write(LINE, &[5; 64]);
        let _ = ch.read(LINE);
        ch.write(LINE, &[6; 64]); // dropped
        let detected = ch.read(LINE).is_err() && ch.read(0x40).is_err();
        report(
            &mut missed,
            "4. dropped write (all later reads fail):",
            detected,
        );
    }

    // 5. Write converted to a read.
    {
        let mut ch =
            SecureChannel::with_interposer(EncryptionMode::Xts, 5, CommandConverter::new(0));
        ch.write(LINE, &[7; 64]);
        let detected = ch.read(LINE).is_err();
        report(&mut missed, "5. write command converted to read:", detected);
    }

    // 6. Plain data / E-MAC bit flips on the bus.
    {
        let mut ch = SecureChannel::with_interposer(
            EncryptionMode::Xts,
            6,
            DataTamperer {
                byte: 5,
                mask: 0x80,
            },
        );
        ch.write(LINE, &[8; 64]);
        let d1 = ch.read(LINE).is_err();
        let mut ch2 =
            SecureChannel::with_interposer(EncryptionMode::Xts, 7, EmacTamperer { mask: 2 });
        ch2.write(LINE, &[9; 64]);
        let d2 = ch2.read(LINE).is_err();
        report(
            &mut missed,
            "6. data / E-MAC bit flips on the bus:",
            d1 && d2,
        );
    }

    // 7. DIMM substitution (cold-boot replay).
    {
        let mut ch = SecureChannel::new_attested(EncryptionMode::Xts, 8);
        ch.write(LINE, &[10; 64]);
        let frozen = ch.rank.snapshot();
        let _ = ch.read(LINE);
        ch.write(LINE, &[11; 64]);
        ch.rank.restore(frozen); // attacker swaps in the frozen DIMM
        let detected = ch.read(LINE).is_err();
        report(
            &mut missed,
            "7. DIMM substitution / cold-boot replay:",
            detected,
        );
    }

    // 8. Man-in-the-middle on the attestation key exchange.
    {
        let ca = CertificateAuthority::new(1);
        let identity = RankIdentity::manufacture(2, &ca);
        let host = host_ephemeral(3);
        let (mut resp, _) = rank_respond(&identity, &host.public, 4);
        resp.ephemeral_public = host_ephemeral(666).public; // Mallory
        let detected = host_verify(&host, &resp, &ca.public(), 0).is_err();
        report(
            &mut missed,
            "8. MITM on attestation key exchange:",
            detected,
        );
    }

    // 9. Counterfeit DIMM (endorsement key not certified by the CA).
    {
        let ca = CertificateAuthority::new(1);
        let rogue = CertificateAuthority::new(66);
        let identity = RankIdentity::manufacture(2, &rogue);
        let host = host_ephemeral(3);
        let (resp, _) = rank_respond(&identity, &host.public, 4);
        let detected = host_verify(&host, &resp, &ca.public(), 0).is_err();
        report(
            &mut missed,
            "9. counterfeit DIMM (bad certificate):",
            detected,
        );
    }

    if !missed.is_empty() {
        eprintln!("\nUndetected attack classes:");
        for label in &missed {
            eprintln!("  {}", label.trim_end_matches(':'));
        }
        std::process::exit(1);
    }
    println!("\nAll nine attack classes are detected, as the paper claims.");
}
