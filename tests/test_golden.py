"""Golden digests: the compiler's emitted text, pinned byte for byte.

The sha256 of ``emit_json``, ``emit_qasm3`` and ``emit_qsharp`` for a fixed
set of inputs was recorded before the synthesis fast path (validate once,
shared X gates, unchecked internal blocks, row-restricted elimination) went
in.  Any change to the circuits the compiler emits, down to the last bit of
an angle, changes a digest.  The inputs are Haar-random unitaries at n = 1..6
and three structured 4-qubit matrices from seeded numpy.  The digests pin
float results of numpy's QR and matrix products on x86_64 with OpenBLAS;
another linear-algebra build may round differently.

``RANDOM_GOLDEN`` pins the emitters alone on ``random_circuit`` gate soups
(n = 1..5, seeded), recorded before the emitters built their text from
per-wiring fragments.  Unlike compiler output, these hold plain and
fully-controlled X, partial, single and empty controls, and rotations at
zero or full-period angles.  Their digests depend on no linear algebra.

``BLOCK_GOLDEN`` and ``SIMULATED_GOLDEN`` pin raw float64 bytes, recorded
before elimination and simulation computed their 2x2 entries as Python
scalars: every ``two_level_decompose`` block with its state pair (the golden
inputs above, a 5-qubit permutation for the swap branch and out-of-order Gray
pairs, and a near-diagonal 5-qubit unitary with off-diagonal entries of 9e-11
and 2e-10 around ``ZERO_THRESHOLD``), and ``circuit_matrix`` of
``random_circuit`` soups and of a compiled circuit.  Unlike the text or
``np.array_equal``, bytes tell ``0.0`` from ``-0.0``.
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
    two_level_decompose,
)

# name -> sha256 of (emit_json, emit_qasm3, emit_qsharp)
GOLDEN = {
    "haar_n1_seed42": (
        "6ada385c0d80a1bb83b7801526f63c0ab7d9fdb27fc82f55156e01de0e64e815",
        "12415c5dd34c4998d1eebc25692971ebfe57d8716997fc93220e689ad7151185",
        "4f1136563943743125ce5d4f132d1cbf7bc8fc15a7277a35b2ba7d7d6d2c6f62",
    ),
    "haar_n2_seed42": (
        "c1a4e982906788d646dec3a66bf36f699b314f0908e076ab4ed39714cae27257",
        "6c7deb3c1d653ac070c9da690ad5e2fa979330f8de0b84bef775362d1402667f",
        "b6062e46bdf9085228ad7893d859f9b7fc41aee23161a0d7f0be4b166434f73c",
    ),
    "haar_n3_seed42": (
        "d71f890638486ce927ee043d5cceec76b44a2ae43e94f7245246749cd4d61e1c",
        "c51197511877657e6e82d6860ff966d56d5807d0dc5c57f70261a75fe695b809",
        "0e216ff6373e42b0ef3ade056d38edff370a04ca456ce4802307ce96da781114",
    ),
    "haar_n4_seed42": (
        "bf6bf3b2bfb9a98786853f149f7ff8656c95efb32dab181ba60184cd8c0063b7",
        "924941583a6d5b5fb2f729e32f740dedd03a6236bc0d8f344323cb7134fbc032",
        "2670099a35901a0f8fb18c4ae99d8b41206fa834da2739071f61df5dc983e679",
    ),
    "haar_n5_seed42": (
        "e1cd9537903aa78579d8c66fe126d39ef1f7e84bab8dc6eebd6f153dba0cdca4",
        "3d78028d1990605ca4d43e0c37e694eaedd71e9685eef1d7c09ad53f86f217ce",
        "1f5c5e9fc7c5a15a407d60b668284ad005277bed4279690da8a385f31eafba6c",
    ),
    "haar_n6_seed42": (
        "4856e9e08ccfc263f0fbce6d07910319c4674ef24ae520fd368be025f7693b7b",
        "1e26fe6157c88373a382ec51ade719e3b5e05d2f0edc971e7afd7ce87da676d0",
        "718789b82c60f40b06873c1ee2cec1290a0204e90984f26403639f673d21df0f",
    ),
    "diagonal_phase_n4": (
        "5c7fc7840b9278b5875e934cb170a13bcd27ae49743ad976c12d16aac2ba3d65",
        "fd048ebd06c0caf444e8c9e72d708b57a850522276c7ff550646dbcd14ee4402",
        "ceedadec273edee145b069ab35e47092d791d8c66f6dc95079cbc429b9d9d04f",
    ),
    "controlled_u_n4": (
        "de50609f1ee54f69022d13faf2ee50b8fc741ab30564db9c18f7b27981483aae",
        "a4ea1c1608ab8a10503f3fa22493c02dddea3e74bbdcf1916f3a475044bb3daa",
        "cdf67648d2ee47e204b066c52f0e68f58e3451d4ef6ffe83333c7f647bbd462f",
    ),
    "block_diagonal_n4": (
        "5537f329f09514d442fad239816f4b7daa905f1cf3ef10e4cf63ec017f56df93",
        "b56d3de131fbce66544c42e7da261dd20a64da466a03eedea6ba9cda91ccb27f",
        "115c289458cf0d0622782e1726914b6b870d72eecb0df0c0c7ea942a671d4f38",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emitted_text_matches_golden_digest(name):
    circuit = matrix_to_circuit(INPUTS[name])
    texts = (emit_json(circuit), emit_qasm3(circuit), emit_qsharp(circuit))
    digests = tuple(hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts)
    assert digests == GOLDEN[name]


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n", sorted(RANDOM_GOLDEN))
def test_random_circuit_text_matches_golden_digest(n):
    circuit = random_circuit(np.random.default_rng(7000 + n), n, 200)
    texts = (emit_json(circuit), emit_qasm3(circuit), emit_qsharp(circuit))
    assert tuple(_sha256(t) for t in texts) == RANDOM_GOLDEN[n]


def test_random_circuit_text_at_reduced_precision_matches_golden_digest():
    circuit = random_circuit(np.random.default_rng(7003), 3, 200)
    qasm3 = emit_qasm3(circuit, angle_precision=8)
    qsharp = emit_qsharp(circuit, "Op", angle_precision=8)
    assert (_sha256(qasm3), _sha256(qsharp)) == (
        "f176b3b7b252cf0493423dca11de32d2006576a72fd9320c2ba8c9eeeded0d36",
        "245296151d19cd4cf72a6272606c712392b685c58aba6356cb5ab4ab7f32fba0",
    )


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

# name -> sha256 over every two_level_decompose block of (s1, s2, block bytes)
BLOCK_GOLDEN = {
    "block_diagonal_n4": "127f83cbf837ea9482de2e09028177d6eeaa8f08510f2df2c06fdc8d150d23ab",
    "controlled_u_n4": "6941f7213e9374838d19ac071c8a78ad2dd6345e583797ea5f5a120a5354a647",
    "diagonal_phase_n4": "59277d5be08f5b086b4ac793ae6ee4ef76f1d58ab64ab86af61ca88357c63657",
    "haar_n1_seed42": "90dbb27da8fd03a912667d7e51a54a2091d7907c4577c4018142feaacaaf7031",
    "haar_n2_seed42": "de2286a94da6f72e28f7d1494569eb719acd72c30a4f00c35e6e5344abc4dee0",
    "haar_n3_seed42": "a8e17c3284c0ed971926da7c48823b447c6f54ae555f87fc5bbd9eea3ec085f3",
    "haar_n4_seed42": "4ca48d917d06d6d86531b02fea253f52ded83b55f47975643c30fcbc2682c135",
    "haar_n5_seed42": "724f7ea20f2debaed202fc1760685b5002a6798c69c7c699eef3f29f722c948a",
    "haar_n6_seed42": "88f4cac53854ca289d08eb9701a633b061c918218d5cf5eb19efd5daca101e1e",
    "near_diagonal_n5": "95e67f2578392daa52befffe3aacd348bb2e5d4dcad06f6ee1ba5c9b8ac5fb84",
    "permutation_n5": "4966e5b34c91b2fd9e368bc0c591896e3445176426096c37ce73a657316937c4",
}


def _block_digest(matrix: np.ndarray) -> str:
    h = hashlib.sha256()
    for element in two_level_decompose(matrix):
        h.update(f"{element.s1},{element.s2};".encode())
        h.update(element.block.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BLOCK_GOLDEN))
def test_two_level_blocks_match_golden_digest(name):
    # block bytes keep the sign of every zero, which the emitted text drops
    assert _block_digest(BLOCK_INPUTS[name]) == BLOCK_GOLDEN[name]


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
    "compiled_haar_n5": "e25573ca2e256d70048490bb9d0560442c039797cc2be7d85eb6e41ed4c75949",
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
