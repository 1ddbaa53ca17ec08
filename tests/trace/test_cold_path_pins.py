"""Pinned digests of the cold-trace path: program generation and synthesis.

Every workload program and every synthesized trace is a pure function of
its seed, drawn from one :class:`~repro.common.rng.SplitMix` stream in a
fixed order. Any change to the stream, to the order in which
:class:`~repro.trace.cfg.ProgramBuilder` or the walker consume it, or to
how they interpret the draws shows up here as a digest mismatch.

The digests were recorded from the scalar SplitMix implementation and
must never be re-recorded to make a change pass: a mismatch means the
change altered the workloads, which silently invalidates every cached
result and committed figure.
"""

import hashlib

import numpy as np
import pytest

from repro.trace.trace import Trace
from repro.trace.workloads import WORKLOAD_SPECS, get_program, get_trace

#: sha256 over each program's functions, blocks, terminators, targets,
#: behaviours and body instructions (see ``_program_digest``).
PROGRAM_DIGESTS = {
    "ad_server":
        "b4e9b55fecb30c2d3ad43a904cc3f6dacb1a2151e7407bf0668998711d711199",
    "compress_svc":
        "64db3bbfd8b3fc3f59071ea03ee1246a36d933e6d2bf1f5de94aea36a4a64d7d",
    "db_analytics":
        "f6244ef87438482bbee128701220692706fe086a8c935a9e81da04a01a58ba89",
    "db_oltp":
        "63d55f2939962e5035dba646983b23be881e09d092dc6ea89d84b3dd35dca693",
    "gc_runtime":
        "39bc075594a61bb5faa8030f3aa9a7b48591c9b119a41436dab1368fe4988104",
    "http_proxy":
        "2fb5eeca0823db80ec4c7d5fbd008f7e4007e826f572a1b6d39d6e1b20142997",
    "kv_store":
        "c42e5e4a08dc9a36920db95ce0fdeeda22a0428ed7cc584c12e3903b673deafe",
    "msg_broker":
        "90257c43548a81c1ea18b06e2ad1b1f58c89f657dd8cd991ebf3a1f5977b0cfa",
    "rpc_marshal":
        "93453d92e171f6dae46ea9994f8f4fd5266557b43a93e10f9b300a97b15d7403",
    "search_rank":
        "8079a2c872a208f18b347e805a8ea9559d8eaa8292203478c23fa61e08377dd5",
    "template_render":
        "7a3be720e7769a6664bdaa38c4f17ce02f0b37e12f9139221cef30902c692bb7",
    "web_frontend":
        "142ac74e1bbb3292c28124b43c29538354822270165ab67ee86d12f06d11257d",
}

#: sha256 over the ten columns of ``get_trace(name, 20_000, seed)``.
TRACE_DIGESTS = {
    ("ad_server", 7):
        "6992ff950811b2d2c7f8d2ed3676e99567e625b2f626f7d557a07bcde76acd5c",
    ("ad_server", 22):
        "1ab95d36d4cb2a9e35907aa95fb61c6d6b08bf599a80289bb9d0f119fd6028c4",
    ("compress_svc", 7):
        "70fabecc943dc4802c77f36020a3dade50eefc39536247100f9983cf8777382c",
    ("compress_svc", 22):
        "cabbaef951b857ec05bde5989ef1d74b669693bbd2a8cb5bae53a53b43bedf59",
    ("db_analytics", 7):
        "17b19be12a25fc9d11b9211e71b8a0ad7d7908b2d94237bcb06ab287f4485392",
    ("db_analytics", 22):
        "301911c25f00d3af2a1d7e5e2249f4959f2e0233b455f94ef625a2960288e8ac",
    ("db_oltp", 7):
        "3def77dfa5b537ef7f1562d070682dc6c387e0e2ba5011954e9b957dc313c78d",
    ("db_oltp", 22):
        "1ece2e240095e3975c45926cceb62f36c8c909084c7a8ba86f9216e29c577ea1",
    ("gc_runtime", 7):
        "19bf28f98949b5ccbc57e161220b9f1aee65834c1476f8812970343f07419ace",
    ("gc_runtime", 22):
        "43897e89c0014ba77e68c0279429e2647fdc76e21be23751ad62e606614d5f8d",
    ("http_proxy", 7):
        "c13195aafe86cd89dea877101d6b5da7409cb7493434953c540a73f8f5467b13",
    ("http_proxy", 22):
        "9b2a60630cf4f9f118f8bd17402c355feeb2a88ceebf1285d048d8f1983ed14a",
    ("kv_store", 7):
        "e63fdc875f78c2545acc0dfe1d37d5845e100a4faae1f675a584c1856c3d585c",
    ("kv_store", 22):
        "fcb060d48e442a8df8be9a8839a4aa455a38a47c4eb0547be8b097ba1e148835",
    ("msg_broker", 7):
        "e3d815d5e9e3a2711e2c4f10f4970861db019a2f272b31bd70cfea1da8e869a2",
    ("msg_broker", 22):
        "a2d5e04d8a0abbf4889a91e63d78017f497f5b1ddd22b9e03d4d41ef9d899f44",
    ("rpc_marshal", 7):
        "5708e6aa618a7064c8b1428687db2c5a66833dac35ce248df854cb3bb907e8b8",
    ("rpc_marshal", 22):
        "d1511d905538ac5f2ceb1da72cb07f8376645fc3872c4872bcfd5856b6692856",
    ("search_rank", 7):
        "b6c96043cd7fa7c5c535965c0e3334cff43dc54b9250a6306a4505bbdf3591de",
    ("search_rank", 22):
        "9429d1ecdbfbeaf6ed5449f86af24e034edfb5c5aceba7e365399d1198605654",
    ("template_render", 7):
        "b3ce3c42b9c9d7d224aea20e4c26cf23e5d8f20de4d8b2c97aad92a848d5ce80",
    ("template_render", 22):
        "2d0c22c07b8cf9b5a046eea9459a3d732cd7820af9f34ae3adae57edcd4d669d",
    ("web_frontend", 7):
        "2df0c68d6c7786f1817769823bf4899be18e22c5ed7a122bd405350a90d80b8c",
    ("web_frontend", 22):
        "c2ff24cf7261c7df6506b8824f1f3b432f511076768a719aa920afd7c1485cec",
}

TRACE_LENGTH = 20_000
TRACE_SEEDS = (7, 22)


def _behaviour(obj):
    if obj is None:
        return None
    public = {k: v for k, v in vars(obj).items() if not k.startswith("_")}
    return (type(obj).__name__, sorted(public.items()))


def _program_digest(program) -> str:
    h = hashlib.sha256()
    for func in program.functions:
        h.update(repr((func.name, func.level, func.heat)).encode())
        for block in func.blocks:
            h.update(repr((
                block.start_pc, int(block.term_type), block.taken_target,
                _behaviour(block.cond_behavior),
                _behaviour(block.indirect_behavior),
            )).encode())
            for inst in block.insts:
                mem = inst.mem
                h.update(repr((
                    inst.pc, inst.kind, inst.dst, inst.src1, inst.src2,
                    None if mem is None else
                    (mem.base, mem.stride, mem.span, mem.p_random),
                )).encode())
    return h.hexdigest()


def _trace_digest(trace) -> str:
    h = hashlib.sha256()
    for column in Trace._COLUMNS:
        h.update(column.encode())
        h.update(np.asarray(getattr(trace, column), dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_program_digest_pinned(name):
    assert _program_digest(get_program(name)) == PROGRAM_DIGESTS[name]


@pytest.mark.parametrize("seed", TRACE_SEEDS)
@pytest.mark.parametrize("name", sorted(WORKLOAD_SPECS))
def test_trace_digest_pinned(name, seed):
    trace = get_trace(name, TRACE_LENGTH, seed)
    assert len(trace) == TRACE_LENGTH
    assert _trace_digest(trace) == TRACE_DIGESTS[(name, seed)]
