#!/usr/bin/env python3
"""A complete selective-exhaustive campaign against sshd.

Reproduces the SSH Client1 column of the paper's Table 1: every bit of
every branch instruction in do_authentication(), auth_rhosts() and
auth_password() is flipped once while an attacker (existing user,
wrong password) connects, and the outcome distribution is printed
next to the paper's numbers.

Run:  python3 examples/ssh_campaign.py        (takes ~15 s)
"""

from repro.analysis import build_table1, format_table1
from repro.apps.sshd import client1, SshDaemon
from repro.injection import describe_targets, run_campaign
from repro.obs import configure_logging, EventBus, ProgressReporter

PAPER = {"NM": 40.16, "SD": 52.42, "FSV": 5.89, "BRK": 1.53}


def main():
    daemon = SshDaemon()
    info = describe_targets(daemon.module, daemon.auth_ranges())
    print("injection targets: %d branch instructions, %d bits "
          "(branches are %.1f%% of the auth sections)"
          % (info["instructions"], info["bits"],
             100 * info["branch_fraction"]))

    # progress lines come from a subscriber on the campaign's event bus
    configure_logging()
    bus = EventBus()
    bus.subscribe(ProgressReporter(step=200))
    campaign = run_campaign(daemon, "Client1", client1, telemetry=bus)

    print()
    print(format_table1(build_table1([campaign]),
                        "SSH Client1 result distribution"))
    print("\npaper (percent of activated): NM %.2f  SD %.2f  FSV %.2f  "
          "BRK %.2f" % (PAPER["NM"], PAPER["SD"], PAPER["FSV"],
                        PAPER["BRK"]))

    breakins = campaign.results_with_outcome("BRK")
    print("\nbreak-ins (%d):" % len(breakins))
    for result in breakins[:10]:
        point = result.point
        print("  0x%08x %-4s byte %d bit %d  [%s]"
              % (point.instruction_address, point.mnemonic,
                 point.byte_offset, point.bit, result.location))
    if len(breakins) > 10:
        print("  ... and %d more" % (len(breakins) - 10))


if __name__ == "__main__":
    main()
