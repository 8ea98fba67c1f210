"""Byte-for-byte pins on CLI stdout.

Each digest is the SHA-256 of the stdout of one JSON request, recorded
before the set-partition enumeration moved into ``partitions``; the four
``--method`` pins were recorded while ``chromatic_symmetric_function`` still
took a route name.  ``LARGE_DIGESTS`` pin text and JSON outputs of more than
100,000 terms, and ``basis --n 6``; they were recorded before elements stored
integer partition codes.  A change that only restructures code must leave
every one of them as it is.
"""

import hashlib
import io
import sys
from contextlib import redirect_stdout

import pytest

from ncsym.cli import main
from ncsym.graphs import LabeledGraph, complete_graph_union, format_graph, random_graph
from ncsym.partitions import SetPartition
from ncsym.verification import SUITES

GRAPHS = {
    "C5": LabeledGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    "star4": LabeledGraph(4, [(1, 2), (1, 3), (1, 4)]),
    "K4": LabeledGraph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]),
    "G6": random_graph(6, 0.5, 1),
}

DIGESTS = {
    "expand C5 m": "c9a50f825b7646df79ac0ab53c347a5f2f000fc4ff28d06eae4ada5f1e8ac6af",
    "expand C5 p": "58a662004da3c31567ceea68c3a9faa98d20b09971586a229135b177c6547e6e",
    "expand C5 e": "ecf051c3a325826cce1fe68bdbc338643d98188bc3526c6bbee7ded835402998",
    "expand C5 h": "3759e653732148e63bec80099ace5d62ed809272431642e5c1ec23032a26a83d",
    "expand C5 x": "9f72e40010eaee50b2c1d22d52d0f4bd3527d868a8d546b2f2b564074e9cc3e4",
    "classify C5": "5d232c1aa3002e4feb368be6dc0a06f639b1b363b7690bc48c2ca884207c64f4",
    "expand star4 m": "4cfbd735136f3496a94d439290d508e74955c8d0d446c4bc68a830afd26b0a3b",
    "expand star4 p": "2884fb9ff87aecb88a9d4827f6e8ccb3e255c7d51775185b88a62abd939ba5ea",
    "expand star4 e": "4a4abf91a64d5426a8d9e9deade2c33637d3f6ba4c2db131f0a5112a61b284b6",
    "expand star4 h": "446aaa574cd49299b1a8b7343c24715649fe62da2431c75d9d63093ba568439e",
    "expand star4 x": "792e47e86312079a7a49211916790c8c83af8a30c7b48a1446bd03bd110297c5",
    "classify star4": "13e8a580f445082cf77566260cfe9243460f4e94e882e1688407047fb35d03a9",
    "expand K4 m": "afd67289de628af875a2e05fd050bb2929280b0b33a4748e33da4da53a90314d",
    "expand K4 p": "834e3b0779d970d13b697d8efc068eb5e39cae280ecf8bf2782b80cdf4183119",
    "expand K4 e": "296aeb105c140fc83c39aef50ab53bbae51039155094a98fb37593a8a5f737ba",
    "expand K4 h": "beb94ddb4fceee7278abceaf1aa727fd48df43e20aecd9a0336e3e69b72e4ddc",
    "expand K4 x": "6429110e3f7b122b0564fe2927e67ad6f8e0b870f767ad0887fe08a2533ebb94",
    "classify K4": "1dd42e31aff8cf1a1baa19481650666f65be655dc2853ef56c63902ea9d697cd",
    "expand G6 m": "fff4f316d53b80583d318c9c20c12288919532e0a6ed4808d25fc58b6a14eb5e",
    "expand G6 p": "7eebb42dd2d14658b2ae0b42f595074a4fd72aec82892252f6b85eceff97a918",
    "expand G6 e": "44a4c794edd05c71605529bd631a7e0a6b768331df2dd7124a337934d1992c55",
    "expand G6 h": "c434c61466a2938d3d3779f70407fec9a2de3a961f98ceb6188524bb3b15f923",
    "expand G6 x": "84a165df75d4f458c9cbfff20539836474761f8987355a65a28bc3ea21168cd7",
    "expand G6 p subset": "7eebb42dd2d14658b2ae0b42f595074a4fd72aec82892252f6b85eceff97a918",
    "expand G6 p mobius": "7eebb42dd2d14658b2ae0b42f595074a4fd72aec82892252f6b85eceff97a918",
    "expand G6 p delcon": "7eebb42dd2d14658b2ae0b42f595074a4fd72aec82892252f6b85eceff97a918",
    "expand G6 p definition":
        "7eebb42dd2d14658b2ae0b42f595074a4fd72aec82892252f6b85eceff97a918",
    "classify G6": "163ff625dd6aa73036aed829666aceb51b28b1a34ee4580e00147dd71da955d7",
    "basis 4 path": "27091f10a08a550f0b068cf462009ce03e4cc3e03409ee4ea0d34696431fb081",
    "basis 4 clique": "ff6d16d788babe977a5bbe01cf6a1ad92a0da6f07acba5e134056d93fcd81a06",
    "verify agreement 4": "3e0c9b5f5619b6f3552d6b2dccb7c1d03639296b709c7415820aa773fda0649a",
    "verify bases 4": "05ebcc5a79aee18ff4e17d6f8eb164357f401d90e2416fc32837a8144b9098d6",
    "verify epos-scan 4": "6ab20fa9cdf2a481415cc941735974ef6bf7f0c0d72f4d865c5bf6e349f67805",
    "verify kdeletion 4": "b5087d2c0d1fdc64de17b18cf27066a58dcc09aba4410a5c7fdfcf7e1e5aea0e",
    "verify multiplicativity 4":
        "9488636a8c3fe649aafcc20bcb92a51dc062087786771d6509d3c2a1cc32b8e6",
    "verify relabeling 4": "f290b898f8cd43db7acf787610c4faf8ef503f143bf73ef50cd536f11e761b77",
    "verify roundtrip 4": "2388bb6e1e3e25337d811fcc61118fcb71973f8e26e1cb7360740034747ea709",
    "verify trees 4": "a57fad089c99bff0b7736a168d16ad1fd2ca75f01f92e8dc8a0d05f7308266b6",
    "verify xsign-scan 4": "f7541f55bda55fc427fe4587409570978efb157fdf87242672218dd5686e9260",
}


def stdout_digest(argv, stdin_text=None):
    out = io.StringIO()
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = old
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def requests():
    for name, graph in GRAPHS.items():
        for basis in "mpehx":
            yield (f"expand {name} {basis}",
                   ["expand", "--graph", "-", "--basis", basis, "--json"], format_graph(graph))
        yield f"classify {name}", ["classify", "--graph", "-", "--json"], format_graph(graph)
    for method in ("subset", "mobius", "delcon", "definition"):
        yield (f"expand G6 p {method}",
               ["expand", "--graph", "-", "--basis", "p", "--json", "--method", method],
               format_graph(GRAPHS["G6"]))
    for strategy in ("path", "clique"):
        yield (f"basis 4 {strategy}",
               ["basis", "--n", "4", "--strategy", strategy, "--json"], None)
    for suite in SUITES:
        yield (f"verify {suite} 4",
               ["verify", "--suite", suite, "--n", "4", "--seed", "101", "--json"], None)


REQUESTS = list(requests())


@pytest.mark.parametrize("key,argv,stdin_text", REQUESTS, ids=[r[0] for r in REQUESTS])
def test_stdout_is_pinned(key, argv, stdin_text):
    assert stdout_digest(argv, stdin_text) == DIGESTS[key]


LARGE_DIGESTS = {
    "expand K10 p": "08c7858ef6a1e6f0ea35bc10100b48c9cf1f4dda5b5110e775f6d2a61930795f",
    "expand K10 p --json": "3dbf63e403c2c56e7cfa5c7aa3a499cee52687d7296075c0f57c14ff2103803c",
    "expand P10 e": "039a7f57b7b2721b116dc64a252d01f847131fd14d6167d5c614fd5e384a58d3",
    "expand P10 e --json": "1a37c9d68e3a8d2588753dff52df0ba340bb3f986cc6913b96a0cdc5b76d5c7b",
    "basis 6 path": "c2ea6458c8a1d6fbb9b73354544685c4fb89763fcdbcdbb1eeb7fec4f43e8865",
    "basis 6 path --json": "e96535a9d5d35ce4fd17e89ffdafe155b6c66487962e46b3873169f80c3e5b72",
    "basis 6 clique": "9fdde90779489e02bb0534243af4b8a2ccfc58b186e3faebd2cd35e6244148de",
    "basis 6 clique --json": "eb738b179329ee1304c6a4605f643a824d6b6c2c6d381d42f2f9af27c64985bc",
}


def large_requests():
    # K_10 in p has B_10 = 115,975 terms, the 10-vertex path in e 115,974
    k10 = complete_graph_union(SetPartition.single_block(10))
    path10 = LabeledGraph(10, [(i, i + 1) for i in range(1, 10)])
    for flags in ([], ["--json"]):
        suffix = "".join(f" {flag}" for flag in flags)
        yield (f"expand K10 p{suffix}",
               ["expand", "--graph", "-", "--basis", "p", *flags], format_graph(k10))
        yield (f"expand P10 e{suffix}",
               ["expand", "--graph", "-", "--basis", "e", *flags], format_graph(path10))
        for strategy in ("path", "clique"):
            yield (f"basis 6 {strategy}{suffix}",
                   ["basis", "--n", "6", "--strategy", strategy, *flags], None)


LARGE_REQUESTS = list(large_requests())


@pytest.mark.parametrize("key,argv,stdin_text", LARGE_REQUESTS, ids=[r[0] for r in LARGE_REQUESTS])
def test_large_stdout_is_pinned(key, argv, stdin_text):
    assert stdout_digest(argv, stdin_text) == LARGE_DIGESTS[key]
