#!/usr/bin/env python3
"""Trusted CVS over real sockets: a deployable client/server session.

Starts the TCP server (the untrusted party) on a background event loop,
connects two verifying clients over localhost, does real work, then
runs the Protocol II synchronisation check over registers the users
exchange among themselves.  Finally the server operator "forks" the
state to show two users one history each -- and the same register
exchange refuses to reconcile.

Run:  python examples/networked_team.py
"""

from repro.net import RemoteClient, serve_in_thread, sync_check


def main() -> None:
    print(__doc__)
    server = serve_in_thread(order=8)
    host, port = server.address
    genesis = server.initial_root_digest()
    print(f"server listening on {host}:{port}")
    print(f"genesis root (common knowledge): {genesis.hex()[:16]}...\n")

    alice = RemoteClient(host, port, "alice", genesis)
    bob = RemoteClient(host, port, "bob", genesis)

    # real work over the wire, every byte verified
    alice.put(b"src/common.h", b"#define VERSION 1")
    alice.put(b"src/main.c", b"int main() { return VERSION; }")
    print("alice committed src/common.h and src/main.c")
    print(f"bob reads common.h    : {bob.get(b'src/common.h').decode()}")
    bob.put(b"src/common.h", b"#define VERSION 2")
    print("bob bumped the version")
    print(f"alice sees the bump   : {alice.get(b'src/common.h').decode()}")
    listing = alice.scan(b"src/", b"src/\xff")
    print(f"alice's verified scan : {[k.decode() for k, _ in listing]}\n")

    # the users meet (mail, chat, a hallway) and compare registers
    registers = {"alice": alice.registers(), "bob": bob.registers()}
    print(f"sync check over exchanged registers: "
          f"{'CONSISTENT' if sync_check(genesis, registers) else 'FORKED'}")

    # now the operator turns malicious: bob gets a private fork
    def swap_state(state):
        """Serve from ``state`` instead (swapped on the server's loop,
        between two operations); returns the state served until now."""
        def swap(core):
            served, core.state = core.state, state
            return served
        return server.with_core(swap)

    stale = server.with_core(lambda core: core.state.clone())
    alice.put(b"src/main.c", b"int main() { return 0; } /* alice v2 */")
    live = swap_state(stale)
    bob.put(b"src/main.c", b"int main() { return 1; } /* bob's world */")
    bob_registers = bob.registers()
    swap_state(live)
    alice.get(b"src/main.c")

    registers = {"alice": alice.registers(), "bob": bob_registers}
    print(f"sync check after the operator forked bob:  "
          f"{'CONSISTENT' if sync_check(genesis, registers) else 'FORKED -- server busted'}")

    alice.close()
    bob.close()
    server.stop()


if __name__ == "__main__":
    main()
