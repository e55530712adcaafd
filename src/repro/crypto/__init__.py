"""Cryptographic substrate: hashing, RSA signatures, and a minimal PKI.

Public surface:

* :class:`~repro.crypto.hashing.Digest` and the ``hash_*`` functions --
  domain-separated SHA-256 with an XOR algebra for Protocol II.
* :class:`~repro.crypto.signatures.Signer` /
  :class:`~repro.crypto.signatures.Verifier` -- the paper's
  ``sign_i(x)`` notation.
* :class:`~repro.crypto.pki.CertificateAuthority` -- RFC 2459-style key
  distribution for Protocol I.
"""

from repro._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "DIGEST_SIZE": ".hashing",
    "Digest": ".hashing",
    "hash_bytes": ".hashing",
    "hash_epoch_snapshot": ".hashing",
    "hash_internal_node": ".hashing",
    "hash_leaf": ".hashing",
    "hash_leaf_node": ".hashing",
    "hash_node": ".hashing",
    "hash_state": ".hashing",
    "hash_tagged_state": ".hashing",
    "xor_all": ".hashing",
    "Certificate": ".pki",
    "CertificateAuthority": ".pki",
    "CertificateError": ".pki",
    "build_verifier": ".pki",
    "verify_certificate": ".pki",
    "PrivateKey": ".rsa",
    "PublicKey": ".rsa",
    "SignatureError": ".rsa",
    "generate_keypair": ".rsa",
    "sign_digest": ".rsa",
    "verify_digest": ".rsa",
    "Signature": ".signatures",
    "Signer": ".signatures",
    "Verifier": ".signatures",
})
