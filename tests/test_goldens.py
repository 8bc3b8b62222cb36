"""Stdout goldens: exact bytes of cheap CLI runs, pinned by sha256.

A refactor that keeps behaviour keeps these digests.  Both oracle
sweeps are exact, so their reports hold no measured error: a passing
report reads the same for every parameter set and seed.
"""

import hashlib

import pytest

from f4solv.cli import main

TRIG = ("--nu", "1/3", "--mu", "1/8", "--beta2", "1/4")

GOLDENS = [
    (("spectrum", "--model", "rational", "--level", "4"),
     "59f97fe53b7eee8da51b9941a79a6ccba8abfb31dd34e6264204528b4458c470"),
    (("spectrum", "--model", "trig", "--frame", "rho", *TRIG, "--level", "4"),
     "1c9bfa80153b65d9251b5bd0bd305132283b3eeb2aa64d1f63b036d0efc83031"),
    (("spectrum", "--model", "trig", "--frame", "native", *TRIG, "--level", "4"),
     "a5885383cecfae2a9b519784a17a07434333d056d768516a4aeda4e5ee335d63"),
    (("eigenfunctions", "--model", "rational", "--level", "3"),
     "00c433559c1105f121a674b588b5e8675876301d7a17458aa79d9c69d0642191"),
    (("verify", "--suite", "triangular", "--model", "trig", "--frame", "native", *TRIG),
     "ea83f95d1eea4ca17c2ce566456cd616c776976d2b1565394622e7e0ad7264b8"),
    (("verify", "--suite", "triangular", "--model", "rational"),
     "91b484985593b308bdaba40dc82a4a2330fb8d96e3c180440a5d671f7ace6763"),
    (("verify", "--suite", "limit"),
     "dd0465f93d7d0b8d950758ec7944ad54e207e2815d277eea8454b04c8de18ce2"),
    (("verify", "--suite", "oracle", "--model", "rational", "--points", "5"),
     "60890517034fc28e9e7352a14473643fa0cfd630068c243bb30b192f43c43713"),
    (("verify", "--suite", "oracle", "--model", "trig", *TRIG, "--points", "5"),
     "f2c5b8f7195f6c58b5a65cbd6145105a70a923261bf2dafdfd830e4eb3629137"),
    (("scan-flags", "--ambiguity-search", "--model", "rational"),
     "36a6f8cb5d379c66363c03a053bcf170265877e6e2aae0d5684f5cdcdfa8ed01"),
    (("verify", "--suite", "scan"),
     "d72917889c9ef8d614dde48de4fa1f67ed92ea4eb25203dc58c4205d7378336a"),
    (("verify", "--suite", "oracle", "--model", "trig", "--nu", "2", "--mu", "3", "--beta2", "3/7"),
     "d4f977383c36d214a341c2c20757b43d58afa998a6c97b8bb3009a35d381efd8"),
    (("verify", "--suite", "a66"),
     "2168c51940702aca08f4aeb441f2beb034a75b8cc10aef506c0bda9508b85b5c"),
    (("eigenfunctions", "--model", "trig", "--frame", "rho", *TRIG, "--level", "4"),
     "cb80c37e0e424ec4c2b6029a282d1f7d7dd58d3b5fe9ff781e64b8c4ba1715c2"),
    # the tau-frame elimination and the block characteristic polynomial
    (("eigenfunctions", "--model", "trig", "--frame", "native", *TRIG, "--level", "4"),
     "7647f8c0519b04d99a7e6224646fe4d19df00865d125d0ce2856b4bcf6fc5146"),
    (("spectrum", "--model", "trig", "--frame", "native", *TRIG, "--level", "5"),
     "99915b0ccf1e3f35d224e07940ecbbfb0e0284b4c8bd37f5a4f423c1492e911e"),
    # grade-8 blocks are 24 x 24: the block root search where blocks are large
    (("spectrum", "--model", "trig", "--frame", "native", *TRIG, "--level", "8"),
     "5187f7d2e5096f5ddcec2564242ae9139375ea0c4afeded69e5e85daae884e4c"),
    # other couplings, other block bounds: the modulus follows each block's bound
    (("spectrum", "--model", "trig", "--frame", "native", "--nu", "2", "--mu", "3", "--beta2", "1",
      "--level", "8", "--format", "json"),
     "76f650159c429666308c13e8e996b8f024a4e16e0b404a4a6ef8800624accecc"),
    # built by substitution: the rho shear and its inverse, and the oracle's sin^2 composition
    (("dump-operator", "--model", "trig", "--frame", "rho", *TRIG),
     "d2d2100093be35b6cf8a4f54e97253d733125adb5597311efaa99e72894ab0a7"),
    (("dump-operator", "--model", "trig", "--frame", "rho",
      "--nu", "1/3", "--mu", "1/8", "--beta2", "3/7"),
     "c68f41af9b237b4b7430c592302367c150049cbef80a5974f6e4eb05bab14021"),
    (("verify", "--suite", "oracle", "--model", "trig", "--nu", "2", "--mu", "3", "--beta2", "3/7",
      "--seed", "2"),
     "d4f977383c36d214a341c2c20757b43d58afa998a6c97b8bb3009a35d381efd8"),
    # the eigen benchmark's commands: MB-sized outputs, every residual certified
    (("eigenfunctions", "--model", "rational", "--level", "8", "--nu", "1/3", "--mu", "1/5",
      "--omega", "1"),
     "ccadf072f3a65bf562f0e2ff474098fc84a59042684cf2330caf38f28edb83c8"),
    (("eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "8", "--nu", "2",
      "--mu", "3", "--beta2", "1"),
     "f17beddc43c6b2c20d8fc89b379bd9265c76b929a6068e391c400f582721b939"),
    # a negative beta^2: hyperbolic points, (cosh, sinh) at r_k = exp(|beta| x_k)
    (("verify", "--suite", "oracle", "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "-1/4"),
     "d4f977383c36d214a341c2c20757b43d58afa998a6c97b8bb3009a35d381efd8"),
    # the CSV writer: labelled rational lines, unlabelled native-frame block eigenvalues
    (("spectrum", "--model", "rational", "--level", "4", "--format", "csv"),
     "bf3e93bffb694f5206b1ae58aae372ee73ebff9586132547785aa27423e93513"),
    (("spectrum", "--model", "trig", "--frame", "native", *TRIG, "--level", "4", "--format", "csv"),
     "bf5e98a79f4ec9f6be0816572d881a652f9d2567cbbc604058068357fec07f7a"),
]


@pytest.mark.parametrize("argv,digest", GOLDENS, ids=[" ".join(a) for a, _ in GOLDENS])
def test_stdout_digest(capsys, argv, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
