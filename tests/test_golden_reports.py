"""Every CLI report on a fixed set of small fixtures, pinned byte for byte.

Each entry is the exit code and the sha256 of `emit(run(config), fmt)` for
one fixture, command and format.  The digests cover check names, their
order and their witnesses as well as the data, so a refactor that keeps
them keeps every report.  `rbg` is left out for the two fixtures whose
matrix is not the constant identity, where it is an input error.
"""

import hashlib
from pathlib import Path

import pytest

from crossconn.cli import ENV_SIZE_GUARD, emit, parse_args, run

ROOT = Path(__file__).resolve().parent.parent

FIXTURES = {
    "p1": ("cyclic:2", "fixtures/P1.csv"),
    "s3": ("fixtures/s3_cayley.csv", "fixtures/s3_P.csv"),
    "z2_2x2": ("cyclic:2", "identity:2x2"),
    "klein_3x2": ("klein", "identity:3x2"),
    "s3_2x2": ("symmetric:3", "identity:2x2"),
}

GOLDEN = {
    ("p1", "build", "json"): (0, "b989d7c1a280a3cc7a1586ce8f41c3f3a1d71c6c6de366a09fc9d3bffb4258a4"),
    ("p1", "build", "text"): (0, "3cf0082606c1535536d1e5dfb236ca1088afd716bd01e835698baa50aaf4c1fc"),
    ("p1", "verify", "json"): (0, "744d5bae95d9b03ae29f70263550a910908a98486fee1755440c30bfc479bad8"),
    ("p1", "verify", "text"): (0, "2ef4ab2a809fd5c620eaa21cccb84709f0084e032d17f67a1f1b3422b1e1c0ff"),
    ("p1", "green", "json"): (0, "8d10c9c45c04407501425f1f7446a76c44af76b813c5ea0ba5e7d81b2b68b1a0"),
    ("p1", "green", "text"): (0, "81a6268d81aa9a5e5a50b51c1ae7607d331975994d571d98f646158c252b398f"),
    ("p1", "cones", "json"): (0, "669489f0e22b33c73c750aedd0ca06b203594dfe7885a8c11cef63e2d6b1e35e"),
    ("p1", "cones", "text"): (0, "75b4529653a0d4df54ebc5acd54a58cf10124a2f23991106c70f2f43449c8666"),
    ("p1", "crossconn", "json"): (0, "4c52c2bfe454656b76bd540093e11196e93eaf4fffde696d3aefa5177f3855ea"),
    ("p1", "crossconn", "text"): (0, "620a5108e22dbb16e849e66c7ee77eb79915b4dc0017ea2e8ca95666981fc482"),
    ("p1", "iso-check", "json"): (0, "946730f79af3948f45da4470c8cb7010c304502c8170e573d9742563a52da996"),
    ("p1", "iso-check", "text"): (0, "ddeb94c83590d671bd962e3ed5582ee20b2b6a3192e98013f1005eada297a508"),
    ("s3", "build", "json"): (0, "d1cb88240b144637227cdc755e0c332e7e887dd3bb0d8187462f3b93fdd26ced"),
    ("s3", "build", "text"): (0, "2fb49c2c7e66155cd7a8038963641257a284734040798c72b79d74b45cf54ffc"),
    ("s3", "verify", "json"): (0, "6472b89e47a8d4c38cc10b887d5b93e8388388a8aa8df71242889183db81022e"),
    ("s3", "verify", "text"): (0, "e74ab73582b4e2f9e3f8dcc7928454da9002ba0dc2f4db087c183188bcf1de23"),
    ("s3", "green", "json"): (0, "55d777b64fa277d80779c1b512a7a925cc0a7460f1e5654dce7b5c600b3e773b"),
    ("s3", "green", "text"): (0, "11b9e100fc5e0eea270955c743b3870a149bf6b45727e9162f1f39df591fefce"),
    ("s3", "cones", "json"): (0, "b83a9d49eca605ad156a7d450b9096bbf31ce03878ecb04acb2a1b9bda0caf1c"),
    ("s3", "cones", "text"): (0, "26a75c00528cbf726651bbfd4a5d0ab3fe3c79f9b6102e3a45348eb4e3a2d84a"),
    ("s3", "crossconn", "json"): (0, "0576d819b94f83098c0c6b8df136bdad267d33093b0771ec4e62356fe9f24e48"),
    ("s3", "crossconn", "text"): (0, "89d188b5a54a4e42df2e9398efaf566fddef063ff89e4c5d0981b2b18a490057"),
    ("s3", "iso-check", "json"): (0, "5773f1049c0288ed4d76d8934cc7cfdfe0ad7504cdad8b20663f056fc834f87a"),
    ("s3", "iso-check", "text"): (0, "8d6ae1b618c0a4bc1232f40c7383825ad84077a40c311986a884069673d0c8a5"),
    ("z2_2x2", "build", "json"): (0, "076dbfdaa0b767569fffde88b924b89ec487d6c98639812541d6f26b76e1a170"),
    ("z2_2x2", "build", "text"): (0, "f23ebdba6ef5f8b1b1744091f9a1a7abbfa7961649a05c71f7943b2fcbd5742c"),
    ("z2_2x2", "verify", "json"): (0, "6411192bd45d67d2dc0a7fc858e7707ff10f325861210ba4cb78fd5e3da39202"),
    ("z2_2x2", "verify", "text"): (0, "e922cdebe5dc1a5221ecbd738f5b5e92892a8ab1eb6683e17074060dcf98196c"),
    ("z2_2x2", "green", "json"): (0, "c25558d79789fb0ec3d45d91eb23f46576f5715a241cd119fe8ea17c23b01fad"),
    ("z2_2x2", "green", "text"): (0, "16d90fa65f302e9d8cc6297c953a4060eb857a2c7a44061ef42917eb23826f6e"),
    ("z2_2x2", "cones", "json"): (0, "dfcc7e2f43cd614784d75bd7ca40f4279ba040e9628354c5c50e7c3da1e2d9bb"),
    ("z2_2x2", "cones", "text"): (0, "26132754c0fbc52e4d1c3d29312c436913eedfdcad0cafcae516becb400358ca"),
    ("z2_2x2", "crossconn", "json"): (0, "a97a87ed7c656b2d41c68cabb4236d5e8d3ebb7d172d207c16b526bcc73cdf34"),
    ("z2_2x2", "crossconn", "text"): (0, "30694b3006517b91458e5b6bd1bd38c065f174ed6fc35eb2fb8fa816f0c3b635"),
    ("z2_2x2", "iso-check", "json"): (2, "b29f2ecac6af3bbbfe19ad978359cbf5d7f036a822ca41e8ffa0cfe3aae27f04"),
    ("z2_2x2", "iso-check", "text"): (2, "ac05816524ec30ec53c3587c70e28bf4ec370c3e02b248e09977271616a627ac"),
    ("z2_2x2", "rbg", "json"): (0, "e51d5d6f7e1aeb8ba6b3cb126c73b9623c88da85199de4be70ef7802f60305e4"),
    ("z2_2x2", "rbg", "text"): (0, "5e4e17ff1993ede4637df054f4cdc1e86c9ed89a7e74939f340fc55ae29a3401"),
    ("klein_3x2", "build", "json"): (0, "65eb0b4e051dbd7dde9d707be513047e403432cd6b4659584433f5ed5ef31e78"),
    ("klein_3x2", "build", "text"): (0, "30abcec31c86a887bc058db2a75e034ae8fb956a0c87207042026970697ad641"),
    ("klein_3x2", "verify", "json"): (0, "432ee3d1b049a8d1b2e0906a09d608e5acaa98ae24bbacf0e6b455d786834ac5"),
    ("klein_3x2", "verify", "text"): (0, "af22b4b2db8ce020e6354b2257280b5638debd84f5db1e2b32eed463029ea8f9"),
    ("klein_3x2", "green", "json"): (0, "a553da10eec5e7cd3e7b8263f6451eeadc63e1c9449204784751469b9373362e"),
    ("klein_3x2", "green", "text"): (0, "cd0586d7bd5d83cb27cf262e99fff0eea4ece07e8a9332518a072b2b52c002f2"),
    ("klein_3x2", "cones", "json"): (0, "e97156b19bad577b44005396ffc1d496980caf4d3053096f34d0d46758d3ebc8"),
    ("klein_3x2", "cones", "text"): (0, "b614183167326b7ef9ac5ad0b2630c886302367b755f81a2a85d3fb728ae9132"),
    ("klein_3x2", "crossconn", "json"): (0, "fce024837ee618969121d69c0206011edf0f635efb2d406719aa4151dcc1b51c"),
    ("klein_3x2", "crossconn", "text"): (0, "56ea4edf179b8ec35acf0cb369f2b39719dbbaf8870bc53c8aa0a355b9d22815"),
    ("klein_3x2", "iso-check", "json"): (2, "10cd6f430501d192792ed31aa2970e4b7ba66a91d48d59698b95aed0c8ad3a65"),
    ("klein_3x2", "iso-check", "text"): (2, "55b4b0a97521477690e066738f138eac72ebeed341c3d567925e86ba41b64e11"),
    ("klein_3x2", "rbg", "json"): (0, "e44693e088130b384dfdb53e0a0c104c479bc7d1533dfaa490a05924e25934dc"),
    ("klein_3x2", "rbg", "text"): (0, "0eaa400a1142507c6335e74bd91bbdf51b1139c31ee83ed56eade8347cd47990"),
    ("s3_2x2", "build", "json"): (0, "e424b7cf6811277febe7c336ff2198d8e3cf2f521ea759a908e35cf60bd60177"),
    ("s3_2x2", "build", "text"): (0, "20333c10df77ed6cf417c0d29163f3014dc1098ad1f66a3138bc5a28d714cd11"),
    ("s3_2x2", "verify", "json"): (0, "ac006827024490a3c1527d6b13bbda42c92606407da2ff142d1e470a47dfaab8"),
    ("s3_2x2", "verify", "text"): (0, "a95af524275db9959b048afd15c66ba1eac08635d35e10248a4f1a03ac6071b4"),
    ("s3_2x2", "green", "json"): (0, "3e11346430d03617fedb6f74090c13ccd4e25240269e8ea26e1553ea883d9783"),
    ("s3_2x2", "green", "text"): (0, "c7f8c9fbba8c8c21990116ce0a91ba197937372ebfe096ff30849ce00194a572"),
    ("s3_2x2", "cones", "json"): (0, "bdaf26e3612b93c0d3b22e8d9f97e5c99b2fffbab0187fb017a3aa8b9fa5ed53"),
    ("s3_2x2", "cones", "text"): (0, "35ea88c5523446097476c2cafb19b4fda88a5dc9f55ead917c8d3e520ef02acb"),
    ("s3_2x2", "crossconn", "json"): (0, "cf2c1de053e63dc66fd1db0b9543ebb47184f35a6631de3c90f6fb34a5eb4e05"),
    ("s3_2x2", "crossconn", "text"): (0, "8608605001630e2ec9809ee0f06ec5d74fe7b2b5a2b8a79328ecc4433e87dd0b"),
    ("s3_2x2", "iso-check", "json"): (2, "f6c9ce98ff919407344985df160f4f08203693c4c6253169b1d5e744eeac24e6"),
    ("s3_2x2", "iso-check", "text"): (2, "82b5862cbf7f99afb22c30552f6f00249b5934da20e620d7f5aed35625a5b2a9"),
    ("s3_2x2", "rbg", "json"): (0, "a9a482509d36eba2976938d1b4883dfdaee5f292948b647ea7654abebd57f0ed"),
    ("s3_2x2", "rbg", "text"): (0, "b9d89ca05bf7031bf4cc6b773423f0a8490914c02854500907d9343eeb6c7a76"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_report_matches_golden(key, monkeypatch):
    fixture, command, fmt = key
    group, matrix = FIXTURES[fixture]
    # the report echoes the specs, so fixture paths stay relative to the repo
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv(ENV_SIZE_GUARD, raising=False)
    config = parse_args(["--group", group, "--matrix", matrix, "--format", fmt, command])
    code, report = run(config)
    digest = hashlib.sha256(emit(report, fmt).encode()).hexdigest()
    assert (code, digest) == GOLDEN[key]
