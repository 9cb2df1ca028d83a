"""Boneh-Gentry-Waters broadcast key encapsulation, hybrid encryption,
classical baselines, and pairing-parameter analysis — all verifiable at
desk scale through an exponent-trace mock group and a small supersingular
curve backend."""

from .analyzer import ParamReport, embedding_degree, security_report
from .classical import (
    DhContribution,
    DhParams,
    RsaKeyPair,
    dh_contribute,
    dh_derive,
    rsa_decrypt,
    rsa_encrypt,
    rsa_keygen,
)
from .errors import (
    AuthenticationError,
    BgwError,
    DecodeError,
    MembershipError,
    ParameterError,
    SetError,
    UsageError,
)
from .groups import (
    BilinearGroup,
    CurveGroup,
    CurveParams,
    GElement,
    GTElement,
    MockGroup,
    make_curve_group,
    make_group,
    make_mock_group,
)
from .hybrid import (
    BroadcastCiphertext,
    GTCiphertext,
    decrypt_gt,
    derive_dem_key,
    encrypt_gt,
    open_bytes,
    seal_bytes,
)
from .kem import (
    Header,
    PrivateKeyShare,
    PublicKey,
    RecipientSet,
    SessionKey,
    decaps,
    decode_header,
    encaps,
    encode_header,
    setup,
    verify_share,
)

__version__ = "0.1.0"
