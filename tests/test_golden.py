"""Golden digests: the compiler's emitted text, pinned byte for byte.

The sha256 of ``emit_json``, ``emit_qasm3`` and ``emit_qsharp`` for a fixed
set of inputs was recorded before the synthesis fast path (validate once,
shared X gates, unchecked internal blocks, row-restricted elimination) went
in.  Any change to the circuits the compiler emits, down to the last bit of
an angle, changes a digest.  The inputs are Haar-random unitaries at n = 1..6
and three structured 4-qubit matrices from seeded numpy.  The digests pin
float results of numpy's QR and matrix products on x86_64 with OpenBLAS;
another linear-algebra build may round differently.

The compiler-dependent digests (emitted text, blocks, the compiled simulated
matrix) were re-recorded once, when elimination began handing synthesis its
own angles, written without ``pi``, and the ZYZ angle moved from ``acos`` to
``atan2``.  ``RANDOM_GOLDEN`` and the ``random_n*`` entries did not move.

``RANDOM_GOLDEN`` pins the emitters alone on ``random_circuit`` gate soups
(n = 1..5, seeded), recorded before the emitters built their text from
per-wiring fragments.  Unlike compiler output, these hold plain and
fully-controlled X, partial, single and empty controls, and rotations at
zero or full-period angles.  Their digests depend on no linear algebra.

``RAW_GOLDEN`` pins ``emit_json`` of the same inputs compiled with
``optimize=False``, recorded before the identity-rotation peephole pass was
deleted; ``GOLDEN`` sees only optimized output.

``ANGLES_GOLDEN`` and ``SIMULATED_GOLDEN`` pin raw float64 bytes.
``ANGLES_GOLDEN`` holds every ``two_level_angles`` entry: its state pair and
its angles, or a marker for an exact X block.  Its inputs are the golden
inputs above, a 5-qubit permutation for the swap branch and out-of-order Gray
pairs, and a near-diagonal 5-qubit unitary with off-diagonal entries of 9e-11
and 2e-10 around ``ZERO_THRESHOLD``.  It was recorded before the 2x2-array
view of the blocks was deleted, and replaced a digest of that view's bytes.
``SIMULATED_GOLDEN``, recorded before simulation computed its 2x2 entries as
Python scalars, holds ``circuit_matrix`` of ``random_circuit`` soups and of a
compiled circuit.  Unlike the text or ``np.array_equal``, bytes tell ``0.0``
from ``-0.0``.
"""

import hashlib

import numpy as np
import pytest
from conftest import random_circuit

from unisynth import (
    circuit_matrix,
    emit_json,
    emit_qasm3,
    emit_qsharp,
    haar_random_unitary,
    matrix_to_circuit,
)
from unisynth.twolevel import two_level_angles

# name -> sha256 of (emit_json, emit_qasm3, emit_qsharp)
GOLDEN = {
    "haar_n1_seed42": (
        "6ada385c0d80a1bb83b7801526f63c0ab7d9fdb27fc82f55156e01de0e64e815",
        "12415c5dd34c4998d1eebc25692971ebfe57d8716997fc93220e689ad7151185",
        "4f1136563943743125ce5d4f132d1cbf7bc8fc15a7277a35b2ba7d7d6d2c6f62",
    ),
    "haar_n2_seed42": (
        "50e733fae8499826503ffe3328fbf57a9869a8770073cc39233ebdddbf70e207",
        "f3eda76b296cc5883e599764ddcaaf66710e8ffde1386aae54997cb1b1c8e203",
        "1f5431d90203789e3882202dd6b3e52dd1c2b53d8e157d20b702b037ff406c90",
    ),
    "haar_n3_seed42": (
        "34cbd963efaddd25904ed960fe1ed8d058da0b7db86034553dbd4316c35f66a7",
        "e43c53cbf8f79d89daef57d5ca3e005d4511eabd56339d1f13d1b3f4467337f9",
        "b0ec4b56a7361b9745790c23c463a48eb4c9007eb6e7e7c5e9b312dfe365501c",
    ),
    "haar_n4_seed42": (
        "5ab189f196b6fed3bd8296bbd6d96a8cbfe65aef564102add66f0fda7f26c366",
        "b43a7ff8fa8daa0b21a4fabc08bf5aedfe2e73676e4fbd4733175429426f0d48",
        "6365c3fb68043ceb9ecf586d0dbf22ac48350db41f7a1c2b2797f08428123b6f",
    ),
    "haar_n5_seed42": (
        "1d65b865fd71470dccda9bfd034690a3563918af528cc36d487947d09ae2da73",
        "cb78e385b28034df9b628f5ad411a63c042a71b69d2bbdcd07f93a58320794ac",
        "bb8b2aee77b4ad4367f1b16a0620f8ab71c56c5f69f777b372dcba7cb629da6f",
    ),
    "haar_n6_seed42": (
        "be05cd492e260a55fc28827f26500d4cf419787cd51c64ab5beb805ce6cec09a",
        "17e88318b9e082b9dadc6a290ddce355b7cffc868c23f6aa7a14a6ef43000fc8",
        "04b98db0c60b1fbecc4166e2c9273d9a4911743644504b3b1a63f5f83a65a136",
    ),
    "diagonal_phase_n4": (
        "5e4024795dac1ab18412f90620e2f3589989d8798a8c14dbdeb369da798be249",
        "9ba53ef3c90fbe3219a9bf7ee7747025c697f97118c4368e92129902fa56ce04",
        "764b1819dab9f8fd87bed70700361c61be24e03934cda3002d5c7739267b2468",
    ),
    "controlled_u_n4": (
        "22bfb353ccd6a85d61ef3f04060a3c67046881f983ff997d1d0997d3e6965c87",
        "1b6cccdd24cf8b0b9813dbf15eb84b51d42a8f24bfac627fabe5a17d95345c13",
        "a57e4bed589048e63b35dbe1cde9fe74a380452d74a62042572cb74808d26e72",
    ),
    "block_diagonal_n4": (
        "d849c354324c321709b299832c00dca0628f6c3d903491c9b055c5f2d73ace78",
        "25ec5ab496deba565bd02c4df3decc4a4695ddacd20463f65017ef27ead749ec",
        "6454c28ced472d4f952026b25b5b51fa69c790cd1ee24d0d44032deb6a399cfc",
    ),
}


def _qr_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag.conj() / np.abs(diag))


def _inputs() -> dict[str, np.ndarray]:
    inputs = {f"haar_n{n}_seed42": haar_random_unitary(n, 42) for n in range(1, 7)}
    rng = np.random.default_rng(2024)
    inputs["diagonal_phase_n4"] = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 16)))
    # U on qubits 0..2, controlled on qubit 3 (the high half of the indices)
    controlled = np.eye(16, dtype=np.complex128)
    controlled[8:, 8:] = _qr_unitary(rng, 8)
    inputs["controlled_u_n4"] = controlled
    block_diagonal = np.zeros((16, 16), dtype=np.complex128)
    for k in range(4):
        block_diagonal[4 * k : 4 * k + 4, 4 * k : 4 * k + 4] = _qr_unitary(rng, 4)
    inputs["block_diagonal_n4"] = block_diagonal
    return inputs


INPUTS = _inputs()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emitted_text_matches_golden_digest(name):
    circuit = matrix_to_circuit(INPUTS[name])
    texts = (emit_json(circuit), emit_qasm3(circuit), emit_qsharp(circuit))
    digests = tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts)
    assert digests == GOLDEN[name]


# name -> sha256 of emit_json of matrix_to_circuit(..., optimize=False)
RAW_GOLDEN = {
    "block_diagonal_n4": "44590bdad41be3d4207bc1934aad8d5d11863eda8243ca0e6777bf684b862afc",
    "controlled_u_n4": "97f2fdf464a7414845893ca3f484a7eced7f9b7dc77d3c73728496cba8be68c0",
    "diagonal_phase_n4": "aa244d2fdbf6a9643d6fa6e823e6955a6960fcebff06460cda568f2eb44d1d59",
    "haar_n1_seed42": "6ada385c0d80a1bb83b7801526f63c0ab7d9fdb27fc82f55156e01de0e64e815",
    "haar_n2_seed42": "50e733fae8499826503ffe3328fbf57a9869a8770073cc39233ebdddbf70e207",
    "haar_n3_seed42": "faac4a8ebc06191d8143e64eb1d9dfaacd73cd65888151eba42809cf25e1fb1e",
    "haar_n4_seed42": "cfa654c3fd55fd81e9a2f68871b14ffcaf1916b23bcf11b4351a19dd333cba5c",
    "haar_n5_seed42": "9b32a66d7632f9621a925d08ceaff47f5014b8cd7a37f68b8ba9b4e1e158aede",
    "haar_n6_seed42": "1f0112801f483c556692e92e4345d5d72da0c96d1d6b596edb18983e106dc2fa",
}


@pytest.mark.parametrize("name", sorted(RAW_GOLDEN))
def test_raw_circuit_matches_golden_digest(name):
    # the unoptimized pipeline (--no-optimize); at n = 1, 2 it equals GOLDEN's
    circuit = matrix_to_circuit(INPUTS[name], optimize=False)
    assert _sha256(emit_json(circuit)) == RAW_GOLDEN[name]


# n -> sha256 of (emit_json, emit_qasm3, emit_qsharp) of
# random_circuit(default_rng(7000 + n), n, 200)
RANDOM_GOLDEN = {
    1: (
        "d1c8f248b27ce2b07716941057a09015114c66c1fe4b7420a68c09dbe3fb81b4",
        "c99813198cd17fb5a551d5860a7e7c2da24a1a630000ac355ff1af8261c4659a",
        "c6f167b83ef9a75275e1183417acce849d8610a0504850dfb03bf063f19592f5",
    ),
    2: (
        "c1533b09adf7a37aa22b24189544a00c10c7afc69410b5bfc691154216a518d5",
        "291e805ffbdb4906c519c6e3e456c8435e199096097311ca972e90825487d4a4",
        "37b66d2c3d2e130a931726dfbe340fdfba6081fd0a67873c16868f7fe0adb73a",
    ),
    3: (
        "f4d56ac7f1ec9cf0ed44a46c519f0a2d42689320a177c8ebb0114e2b2c5c8054",
        "a7f1222daca79cbf05ebca03ed2958b4f5aa4ffe4bb13418f1386903a7c0a41f",
        "f719af4ee29a96ef2d1395bc4d5247a96bbcd844930ad6aaa8b512466fed1e37",
    ),
    4: (
        "fc65b649105c4030572fc77878999f6aefed9ac957089a5eef5e3f11a8880d29",
        "44435a1032f0d022c45311e8cc9a293b3bae3f7329c5fd2819a1c131a83b5a82",
        "4bee5f3ff32fa55183762a1799ca6678f02fa7a56141f65d6d0d99a68da1c659",
    ),
    5: (
        "ec769f824a19c26f43310fa6931c878f8e737e6bd363925d0683bd12613d4c22",
        "d662e0bda9f5e2cef40128f7b899b93a51079dfe415b4bae5da0f2f1ab69c7cf",
        "241c0e5c6c6c11d7dff1bcfccb64494b83c1c8db80a10f7c5758a43bbee025c4",
    ),
}


@pytest.mark.parametrize("n", sorted(RANDOM_GOLDEN))
def test_random_circuit_text_matches_golden_digest(n):
    circuit = random_circuit(np.random.default_rng(7000 + n), n, 200)
    texts = (emit_json(circuit), emit_qasm3(circuit), emit_qsharp(circuit))
    assert tuple(_sha256(t) for t in texts) == RANDOM_GOLDEN[n]


def _permutation_n5() -> np.ndarray:
    perm = np.random.default_rng(2026).permutation(32)
    return np.eye(32, dtype=np.complex128)[perm]


def _near_diagonal_n5() -> np.ndarray:
    # diagonal phases mixed by rotations of 9e-11 (at most ZERO_THRESHOLD:
    # skipped) and 2e-10 (eliminated) on a few index pairs
    rng = np.random.default_rng(2027)
    u = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 32)))
    pairs = [(0, 5), (3, 17), (8, 9), (12, 30), (20, 21), (1, 31), (6, 7), (14, 15)]
    for k, (i, j) in enumerate(pairs):
        eps = 9e-11 if k % 2 == 0 else 2e-10
        phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
        g = np.eye(32, dtype=np.complex128)
        g[i, i] = g[j, j] = np.cos(eps)
        g[i, j] = np.sin(eps) * phase
        g[j, i] = -np.sin(eps) * np.conj(phase)
        u = g @ u
    return u


BLOCK_INPUTS = {
    **INPUTS,
    "permutation_n5": _permutation_n5(),
    "near_diagonal_n5": _near_diagonal_n5(),
}

# name -> sha256 over every two_level_angles entry of (s1, s2, angle bytes),
# with b"X" standing for an exact X block
ANGLES_GOLDEN = {
    "block_diagonal_n4": "c5df182cd2fcd13bac807309f8654d82997933c43bf3447b12773d4b6d783425",
    "controlled_u_n4": "8beb4c148354e78367c33fd81065fc74717bceeac6747ff79e2e9a489b7b6c40",
    "diagonal_phase_n4": "fba5bc41c1dca0ac71dbd5760f62125d95d133008d9c640eecdf5552517aaf70",
    "haar_n1_seed42": "488a6ecef8a3657b19713ffdba3114396f93671f55f9a30d0360a4e40e1f5ae4",
    "haar_n2_seed42": "5afb86b7a8338b103499ebe34000ee8f02ac0653d145de04897420c0b3ba1183",
    "haar_n3_seed42": "76544a045d2b66853560b006fe170177b9a3d2a816c3e09f1f257200a2609563",
    "haar_n4_seed42": "a62ee65fa15cd41441a5431e2bc997e0fa43a90b04fa34e2b5faecb1cf249355",
    "haar_n5_seed42": "7fb2ea31cc08dadc8458f6e13dca696196198946e45ba0339870027afbe80b89",
    "haar_n6_seed42": "b9927ccca0334272c707d3314b7eeaba4d056cffa1efe139da657a7e5a8ee2c3",
    "near_diagonal_n5": "3f7d90d19e5281ba705392e4d13306c70b139108cd54f525f6066fd68d7695fe",
    "permutation_n5": "4a0aa513f8582661112cb1f89329135411c78a40554f7e3a8ee5eb41af3aa1a1",
}


def _angles_digest(matrix: np.ndarray) -> str:
    h = hashlib.sha256()
    for s1, s2, angles in two_level_angles(matrix):
        h.update(f"{s1},{s2};".encode())
        h.update(b"X" if angles is None else np.array(angles, np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(ANGLES_GOLDEN))
def test_two_level_blocks_match_golden_digest(name):
    # angle bytes keep the sign of every zero, which the emitted text drops
    assert _angles_digest(BLOCK_INPUTS[name]) == ANGLES_GOLDEN[name]


def _simulated_inputs():
    inputs = {
        f"random_n{n}": random_circuit(np.random.default_rng(7100 + n), n, 200)
        for n in range(1, 7)
    }
    inputs["compiled_haar_n5"] = matrix_to_circuit(haar_random_unitary(5, 42))
    return inputs


SIMULATED = _simulated_inputs()

# name -> sha256 of circuit_matrix(circuit).tobytes()
SIMULATED_GOLDEN = {
    "compiled_haar_n5": "ca79082fe51b1d343214e744a95f395d2165ab55ab5c8f5aef17727787237489",
    "random_n1": "1e7cc8935ccae84f819956baa4d8b2dee371f7c883a46ca4826801a321ea76d9",
    "random_n2": "9db948ab17a767b20dff49fd343e44820660a26d703b1367df627ee403ede878",
    "random_n3": "28ca858fef1139ceb4d5d92fc5cdff62a8bb817d0c41f1ba1489a2eddcff5ea4",
    "random_n4": "0ede70dc18b7ac64e30b426a583488f2353b978e9136ae4781e90da52870a62d",
    "random_n5": "bd4ebfe1d8693f626d01c15e15c99ee2e40e929ce4632bd462051947084e52f1",
    "random_n6": "723beeb9fd8b54b9a28ef745e303ff24ca89e3c99094b2240e56270035b2f925",
}


@pytest.mark.parametrize("name", sorted(SIMULATED_GOLDEN))
def test_simulated_matrix_bytes_match_golden_digest(name):
    # np.array_equal against the masked oracle ignores the sign of zero
    got = circuit_matrix(SIMULATED[name]).tobytes()
    assert hashlib.sha256(got).hexdigest() == SIMULATED_GOLDEN[name]
