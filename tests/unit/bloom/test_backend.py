"""One bit store: every filter keeps its bits in a ``BitArray``.

There is no bit-storage choice anywhere: no configuration field, no
``backend`` parameter on a filter, a codec reader, a message, a node, a
transport, a worker, the facade or the workload engine, and no command-line
flag.  ``repro.bloom.backend`` keeps one function, read by the system
benchmark's machine fingerprint; it names the one store.

The cluster, workload and command-line surfaces need NumPy and are skipped
without it; everything else here runs without NumPy.
"""

import inspect

import pytest

import repro.bloom
import repro.bloom.backend as backend_module
from repro.bloom.backend import resolve_backend_class
from repro.bloom.bitset import BitArray
from repro.bloom.standard import BloomFilter
from repro.core.config import DIMatchingConfig
from repro.core.wbf import WeightedBloomFilter
from repro.distributed.transport import worker

#: Every call the bit-storage knob used to reach, as ``module:qualname``.
FORMER_KNOB_CALLS = [
    "repro.bloom.bitset:BitArray.__init__",
    "repro.bloom.bitset:BitArray.from_indices",
    "repro.bloom.bitset:BitArray.from_bytes",
    "repro.bloom.standard:BloomFilter.__init__",
    "repro.bloom.standard:BloomFilter.from_state",
    "repro.core.wbf:WeightedBloomFilter.__init__",
    "repro.core.wbf:WeightedBloomFilter.from_state",
    "repro.wire.codec:decode",
    "repro.wire.codec:read_frame",
    "repro.wire.codec:_decode_payload_cached",
    "repro.wire.codec:_read_config_block",
    "repro.wire.codec:_read_bloom_body",
    "repro.wire.codec:_read_wbf_body",
    "repro.wire.codec:_read_batch_body",
    "repro.wire.codec:_read_report_body",
    "repro.wire.codec:_read_pattern_body",
    "repro.wire.codec:_read_local_pattern_body",
    "repro.wire.codec:_read_query_body",
    "repro.wire.codec:_read_query_batch_body",
    "repro.wire.codec:_read_object_list_body",
    "repro.wire.codec:_read_message_body",
    "repro.distributed.messages:Message.from_wire",
    "repro.distributed.node:Node.receive_wire",
    "repro.distributed.node:Node.receive_frame",
    "repro.distributed.transport.base:Transport.__init__",
    "repro.distributed.network:SimulatedNetwork.__init__",
    "repro.distributed.transport.tcp:TcpTransportManager.__init__",
    "repro.distributed.transport.tcp:TcpTransportManager.create_transport",
    "repro.distributed.transport.tcp:TcpTransport.__init__",
    "repro.distributed.transport.worker:StationWorker.__init__",
    "repro.cluster.facade:Cluster._build_transport",
    "repro.cluster.spec:ClusterSpec.from_workload",
    "repro.workloads.engine:run_workload",
]

KNOB_NAMES = {"backend", "decode_backend", "bit_backend"}


def resolve(target: str):
    """The object ``module:qualname`` names; skipped when its module needs NumPy."""
    module_name, _, qualname = target.partition(":")
    obj = pytest.importorskip(module_name, exc_type=ImportError)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class TestOneBitStore:
    @pytest.mark.parametrize("target", FORMER_KNOB_CALLS)
    def test_no_call_takes_a_bit_store_choice(self, target):
        parameters = inspect.signature(resolve(target)).parameters
        assert not KNOB_NAMES & set(parameters)

    @pytest.mark.parametrize(
        "build",
        [lambda: BitArray(8), lambda: BloomFilter(8, 1), lambda: WeightedBloomFilter(8, 1)],
        ids=["BitArray", "BloomFilter", "WeightedBloomFilter"],
    )
    def test_no_store_names_a_backend(self, build):
        assert [name for name in dir(build()) if "backend" in name] == []

    def test_the_bloom_package_exports_no_backend_name(self):
        assert sorted(repro.bloom.__all__) == [
            "BitArray",
            "BloomFilter",
            "HashFamily",
            "expected_false_positive_rate",
            "fill_ratio",
        ]
        for name in (
            "BACKEND_CHOICES",
            "HAS_NUMPY",
            "BackendUnavailableError",
            "BitBackend",
            "BytearrayBackend",
            "NumpyBackend",
            "available_backends",
            "make_backend",
            "resolve_backend_class",
        ):
            assert not hasattr(repro.bloom, name), name

    def test_the_backend_module_defines_only_the_fingerprint_function(self):
        defined = [
            name
            for name, value in vars(backend_module).items()
            if getattr(value, "__module__", None) == backend_module.__name__
        ]
        assert defined == ["resolve_backend_class"]

    def test_the_fingerprint_names_the_one_store(self):
        # benchmarks/system/run.py records this name as "bit_backend".
        assert resolve_backend_class("auto") is BitArray
        assert resolve_backend_class("auto").name == "python"

    def test_the_config_refuses_a_bit_backend(self):
        with pytest.raises(TypeError, match="bit_backend"):
            DIMatchingConfig(bit_backend="python")
        with pytest.raises(TypeError, match="bit_backend"):
            DIMatchingConfig().with_updates(bit_backend="python")

    def test_the_worker_refuses_a_decode_backend_flag(self, monkeypatch):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker was built")

        monkeypatch.setattr(worker, "StationWorker", no_worker)
        argv = ["--port", "1", "--station-id", "bs-0", "--decode-backend", "auto"]
        with pytest.raises(SystemExit) as exited:
            worker.main(argv)
        assert exited.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["compare"], ["workload", "run", "steady-state"]],
        ids=["compare", "workload-run"],
    )
    def test_the_cli_refuses_a_bit_backend_flag(self, argv):
        main = resolve("repro.cli:main")
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--bit-backend", "python"])
        assert exited.value.code == 2
