"""Stdout goldens: exact bytes of cheap CLI runs, pinned by sha256.

A refactor that keeps behaviour keeps these digests.  The periodic
oracle at a non-dyadic beta (beta^2 = 1/8, 3/7) is included because
there multiplying by beta rounds, so its worst relative error changes
with the association of the gradient's terms; the pool parameter sets
all have dyadic beta and cannot see that.
"""

import hashlib
import json

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
     "30b8fb5cba29c0c7570417307ca2cb8c3bbd5a2ecbf4f16fcfda558810764385"),
    (("verify", "--suite", "oracle", "--model", "rational", "--points", "5"),
     "60890517034fc28e9e7352a14473643fa0cfd630068c243bb30b192f43c43713"),
    (("verify", "--suite", "oracle", "--model", "trig", *TRIG, "--points", "5"),
     "d5a88526604d0f6371e135974a6f903f763a25897fe4efdd27edcf9e1a4b4d73"),
    (("scan-flags", "--ambiguity-search", "--model", "rational"),
     "36a6f8cb5d379c66363c03a053bcf170265877e6e2aae0d5684f5cdcdfa8ed01"),
    (("verify", "--suite", "scan"),
     "291d0a179accfc8ba0950189f51ca416f457a9504af508ff716d43816ef7a372"),
    (("verify", "--suite", "oracle", "--model", "trig", "--nu", "2", "--mu", "3", "--beta2", "3/7"),
     "46f2240bf4c98218f5aa1aa94ca07401f29f46ac56a283a1fa3650fecfe47b70"),
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
     "f3bc319bc25b212d4695ca667ea2ac43225ae84f2bfa1763c9e2cab6dac0b811"),
    # the eigen benchmark's commands: MB-sized outputs, every residual certified
    (("eigenfunctions", "--model", "rational", "--level", "8", "--nu", "1/3", "--mu", "1/5",
      "--omega", "1"),
     "ccadf072f3a65bf562f0e2ff474098fc84a59042684cf2330caf38f28edb83c8"),
    (("eigenfunctions", "--model", "trig", "--frame", "rho", "--level", "8", "--nu", "2",
      "--mu", "3", "--beta2", "1"),
     "f17beddc43c6b2c20d8fc89b379bd9265c76b929a6068e391c400f582721b939"),
    # a negative beta^2: a complex beta, so every table takes the generic loop
    (("verify", "--suite", "oracle", "--model", "trig", "--nu", "1/3", "--mu", "1/8", "--beta2", "-1/4"),
     "770be24979c715f04321d24bbcc4e8a0763f7cbdf66a288011ded4603ebccd64"),
]


def run(capsys, monkeypatch, argv):
    monkeypatch.delenv("F4SOLV_PRECISION", raising=False)
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv,digest", GOLDENS, ids=[" ".join(a) for a, _ in GOLDENS])
def test_stdout_digest(capsys, monkeypatch, argv, digest):
    code, out = run(capsys, monkeypatch, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_trig_oracle_worst_error_at_non_dyadic_beta(capsys, monkeypatch):
    # each gradient term is ((g alpha_k) beta) cot(beta alpha.x); the other
    # association, g alpha_k (beta cot), reads 9.5342325e-59 here (at seed 0
    # both read 5.2049789e-59)
    argv = ("verify", "--suite", "oracle", "--model", "trig",
            "--nu", "1/3", "--mu", "1/8", "--beta2", "1/8", "--seed", "3")
    code, out = run(capsys, monkeypatch, argv)
    assert code == 0
    assert '"worst_rel_error": "9.2534576e-59"' in out
    sweep = json.loads(out)["sweep"]
    assert (sweep["points"], sweep["polynomials"]) == (20, 5)
