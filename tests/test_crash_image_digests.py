"""Pinned crash-image digests for every crashsweep unit.

For each (workload, config) unit the sweep schedules, at budget 2 and
seed 7, each sampled crash point is re-run and one image per
:class:`CrashPolicy` is composed. The test pins two sha1s per image:

- the image :func:`compose_image` returns;
- the durable snapshot after the subject's own recovery and a drain.

The digests were computed once and must never move: any change to how
the store buffer represents, fences, drains or composes images has to
leave every post-crash byte where it was.

MGSP transactions claim metalog slots by ``hash()`` of a tuple holding a
string, so the txn units' images depend on the interpreter's string-hash
seed. The digests are therefore computed in a child interpreter with
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

import repro
from repro.core.recovery import recover
from repro.crashsweep.census import sample_points, take_census
from repro.crashsweep.sweep import PERSIST_PROBABILITY, POLICIES, point_seed
from repro.crashsweep.workloads import (
    CONFIGS,
    PQUEUE_BASE,
    WORKLOADS,
    LibnvmmioSweepWorkload,
    NovaSweepWorkload,
    PqueueSweepWorkload,
    make_config,
)
from repro.nvm.crash import CrashPlan, compose_image
from repro.nvm.device import NvmDevice

BUDGET = 2
SEED = 7


def _sha1(data) -> str:
    return hashlib.sha1(bytes(data)).hexdigest()


def _recovered_durable(workload, config_name: str, image: bytes) -> bytes:
    """Boot *image*, run the subject's recovery, drain, snapshot."""
    device = NvmDevice.from_image(image)
    if isinstance(workload, NovaSweepWorkload):
        from repro.fs.nova import Nova

        Nova.recover(device)
    elif isinstance(workload, LibnvmmioSweepWorkload):
        from repro.fs.libnvmmio import Libnvmmio
        from repro.fsapi.layout import VolumeLayout
        from repro.fsapi.volume import Volume

        Volume.mount(
            device, VolumeLayout.for_device(device.size, log_fraction=Libnvmmio.log_fraction)
        )
    elif isinstance(workload, PqueueSweepWorkload):
        from repro.db.pqueue import PersistentQueue

        PersistentQueue.recover(device, PQUEUE_BASE, sync=config_name == "sync")
    else:
        recover(device, config=make_config(config_name))
    device.drain()
    return device.buffer.snapshot_durable()


def units() -> List[str]:
    return [
        f"{name}/{config}"
        for name in sorted(WORKLOADS)
        for config in sorted(CONFIGS)
        if config in WORKLOADS[name].supported_configs
    ]


def unit_digests(unit: str) -> Dict[int, List[str]]:
    """crash point -> [image sha1, recovered sha1] per policy, in
    :data:`POLICIES` order."""
    name, config_name = unit.split("/")
    workload = WORKLOADS[name]
    census = take_census(workload, config_name)
    out: Dict[int, List[str]] = {}
    for point in sample_points(census.events, BUDGET, SEED):
        outcome = workload.run(config_name, CrashPlan(point))
        assert outcome.crashed, f"{unit}: point {point} never fired"
        device = outcome.fs.device
        row = []
        for policy in POLICIES:
            image = compose_image(
                device, policy, seed=point_seed(SEED, point),
                persist_probability=PERSIST_PROBABILITY,
            )
            row.append(_sha1(image))
            row.append(_sha1(_recovered_durable(workload, config_name, image)))
        out[point] = row
    return out


PINNED: Dict[str, Dict[int, List[str]]] = {
    "fio-randwrite/async": {
        1326: [
            "322edf2b201408e877448b4e3ab1612ee08545e8",
            "feb0855e651a7a8cb0dbf249e9eb832066295587",
            "02ae10a7d3561c340fd94b68083c6039d1010031",
            "a5a80aa5ea1dae4f511f098e7de3cefc54afd781",
            "9c5e1331b9ce76c5bfefaf464ee8119f9f8386c5",
            "ebf5d16e78006dd88db8dd3f9a47d629a79f4b04",
        ],
        4154: [
            "0b8ce6e5d9f9d743a2f1911251421beac0b71db8",
            "e15a3e3de203ac935701b96644925bfcae1c9848",
            "cdc9637fa58b8f77376400de6619f04feb2c7aac",
            "e15a3e3de203ac935701b96644925bfcae1c9848",
            "cdc9637fa58b8f77376400de6619f04feb2c7aac",
            "e15a3e3de203ac935701b96644925bfcae1c9848",
        ],
    },
    "fio-randwrite/sync": {
        1326: [
            "3dd77c4b712d889f5b49b81d6824f4a0affe60f7",
            "f54b7d36654b8c654e28363e02fd7122c13e0d3c",
            "494ddde42b8e3b9963d247b2dfa1e1bdc4db4787",
            "3725cbe5a473de829306f9fc0595b0fcca2eb49d",
            "dba1be442eec89be35492864d2619138f9be0d8b",
            "a8fb558004f21e9b803e83ca3edb0fbb666fe71a",
        ],
        3296: [
            "00c885ad243b0b98e3a35a6d6a2ff828ea920c9d",
            "80fd6cc9a62bbf9c44ff5c512ff11b662cf61119",
            "338fdd129333ab487cbefb48bdb92dd775107629",
            "80fd6cc9a62bbf9c44ff5c512ff11b662cf61119",
            "00c885ad243b0b98e3a35a6d6a2ff828ea920c9d",
            "80fd6cc9a62bbf9c44ff5c512ff11b662cf61119",
        ],
    },
    "fio-write/async": {
        1326: [
            "c24a537df409a1ba9864977bd83c79e7a72e5f0a",
            "394427d54762354a202d3d73f04c25d4142f9f5c",
            "c3e5d667c296f8936def255c97b5ccd082a30aa3",
            "394427d54762354a202d3d73f04c25d4142f9f5c",
            "c3e5d667c296f8936def255c97b5ccd082a30aa3",
            "394427d54762354a202d3d73f04c25d4142f9f5c",
        ],
        3451: [
            "8c29dfa8d602f9dbbc66785330c5bf11642312b9",
            "c934323ca83d43248372ace83e7a3e45349c68ab",
            "4c01204064eab2b306c0df09c4cc19cf10d063a9",
            "c934323ca83d43248372ace83e7a3e45349c68ab",
            "8c29dfa8d602f9dbbc66785330c5bf11642312b9",
            "c934323ca83d43248372ace83e7a3e45349c68ab",
        ],
    },
    "fio-write/sync": {
        1326: [
            "3a3ba76f5ef71e85d0819dc28e5bbce55b47fe58",
            "ab72100e0f41e4dba5edcda7395d925e575d3511",
            "7e8c273e6c3bfbddb8ae457b0ff1f639e4675686",
            "ab72100e0f41e4dba5edcda7395d925e575d3511",
            "7e8c273e6c3bfbddb8ae457b0ff1f639e4675686",
            "ab72100e0f41e4dba5edcda7395d925e575d3511",
        ],
        3010: [
            "34c868e589911c11b3e4dfe378c9db0c3b2b5c91",
            "76e4d52785dfb8948692b20f33623475e6c7f54b",
            "8619df94e6e78f8cd705cc734d5de5a94b5ae1dd",
            "76e4d52785dfb8948692b20f33623475e6c7f54b",
            "34c868e589911c11b3e4dfe378c9db0c3b2b5c91",
            "76e4d52785dfb8948692b20f33623475e6c7f54b",
        ],
    },
    "libnvmmio-fio/sync": {
        82: [
            "639330fed2754852c6f07b853bc2d534e37409eb",
            "639330fed2754852c6f07b853bc2d534e37409eb",
            "639330fed2754852c6f07b853bc2d534e37409eb",
            "639330fed2754852c6f07b853bc2d534e37409eb",
            "639330fed2754852c6f07b853bc2d534e37409eb",
            "639330fed2754852c6f07b853bc2d534e37409eb",
        ],
        175: [
            "5d1325a397822b3282447e292f41e678154240c6",
            "5d1325a397822b3282447e292f41e678154240c6",
            "f2a1f8ba360e71c5a5af1a8e84e644c2893de95c",
            "f2a1f8ba360e71c5a5af1a8e84e644c2893de95c",
            "a5b2d50e32cd093a5d004d82797d2c13d35f40be",
            "a5b2d50e32cd093a5d004d82797d2c13d35f40be",
        ],
    },
    "libnvmmio-txn/sync": {
        41: [
            "1a45455a8e5819cf6cacf10974929263c627efb9",
            "1a45455a8e5819cf6cacf10974929263c627efb9",
            "c3778da618b634097aa801e9be9ab38e9e4fb91e",
            "c3778da618b634097aa801e9be9ab38e9e4fb91e",
            "fa447b735d08ec81ecf7b1f2efff17f6d650440c",
            "fa447b735d08ec81ecf7b1f2efff17f6d650440c",
        ],
        115: [
            "957f9c41125f6200c0c22a32462143e5c0f93a81",
            "957f9c41125f6200c0c22a32462143e5c0f93a81",
            "c3a27744c8c1fb2e007df0a6ac826f290f02c4a9",
            "c3a27744c8c1fb2e007df0a6ac826f290f02c4a9",
            "dd674f50da8d9aafb5dbb18e4df89a4e19348edb",
            "dd674f50da8d9aafb5dbb18e4df89a4e19348edb",
        ],
    },
    "nova-fio/sync": {
        82: [
            "a79aaaca9f5569c5e769b90bdfda564880a8c6ab",
            "67edc536763423475ae4e53e916baf485612323e",
            "00892a012f1dfcfbdcc8ffe6880d437a11fdc73a",
            "00892a012f1dfcfbdcc8ffe6880d437a11fdc73a",
            "a8000b0df5389ba8755c74cc45ab37d9c8bfa0b5",
            "a8000b0df5389ba8755c74cc45ab37d9c8bfa0b5",
        ],
        487: [
            "1169767734f3772d601584765a5872ff4c01c3b6",
            "02ca8a9a2d18ac61f919d40d896786dfdfe49162",
            "d8d803fa429a0612f33abc68d2b984ceb3d3e297",
            "02ca8a9a2d18ac61f919d40d896786dfdfe49162",
            "d8d803fa429a0612f33abc68d2b984ceb3d3e297",
            "02ca8a9a2d18ac61f919d40d896786dfdfe49162",
        ],
    },
    "nova-txn/sync": {
        82: [
            "19fc5029806149e07115b9a689b61a34c99afa4d",
            "7d61ae50760c2e9e0808221cd93eb59937fac4a7",
            "a2597f0de667795839264ea08db415e56fcecc8f",
            "7d61ae50760c2e9e0808221cd93eb59937fac4a7",
            "a2597f0de667795839264ea08db415e56fcecc8f",
            "7d61ae50760c2e9e0808221cd93eb59937fac4a7",
        ],
        233: [
            "d918d67210dfe6783edf27f5567da71909937b62",
            "e28c3b55b4afb0e72f415fa66397a6b47e1ef9e9",
            "493e6474fb4c11d537392c7ecdcba9ebfa2aab92",
            "e28c3b55b4afb0e72f415fa66397a6b47e1ef9e9",
            "0569b474abe0289d00a1bd14a5a5d8012a1ea530",
            "e28c3b55b4afb0e72f415fa66397a6b47e1ef9e9",
        ],
    },
    "pqueue-mpsc/async": {
        41: [
            "9785b6a1a9da68b7a3b6b964b911cf6eaa0f226d",
            "9785b6a1a9da68b7a3b6b964b911cf6eaa0f226d",
            "f69d6714f2ea7ffaf0ad18bed59f4ce8f75d57da",
            "f69d6714f2ea7ffaf0ad18bed59f4ce8f75d57da",
            "9785b6a1a9da68b7a3b6b964b911cf6eaa0f226d",
            "9785b6a1a9da68b7a3b6b964b911cf6eaa0f226d",
        ],
        104: [
            "94cbd90c4ce5cca9455455c64ce2601deb88090e",
            "94cbd90c4ce5cca9455455c64ce2601deb88090e",
            "ed6e7e0d88b3d9338294fcd0d80253aacedd71c9",
            "ed6e7e0d88b3d9338294fcd0d80253aacedd71c9",
            "ed6e7e0d88b3d9338294fcd0d80253aacedd71c9",
            "ed6e7e0d88b3d9338294fcd0d80253aacedd71c9",
        ],
    },
    "pqueue-mpsc/sync": {
        82: [
            "5bb487c2f546c78274782ff25361ec2555d720d0",
            "5bb487c2f546c78274782ff25361ec2555d720d0",
            "5bb487c2f546c78274782ff25361ec2555d720d0",
            "5bb487c2f546c78274782ff25361ec2555d720d0",
            "5bb487c2f546c78274782ff25361ec2555d720d0",
            "5bb487c2f546c78274782ff25361ec2555d720d0",
        ],
        205: [
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
            "c30651220ad8e32bdb36a5f8a341bb991844cee4",
        ],
    },
    "txn-mixed/async": {
        663: [
            "1b5993064f081c1ba5c65a9d477fcab07c416434",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
            "81dc7882757f5b1a252c653e3fe75426277bab1e",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
            "1b5993064f081c1ba5c65a9d477fcab07c416434",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
        ],
        1501: [
            "a6496cae353712bc83df1a0845b748c9a7aba8c8",
            "fb3eadd16b029556129a24c77ae1c58aaee3b95f",
            "5a7dcc9321e08c5fe2d322342b779e4e2deaa163",
            "fb3eadd16b029556129a24c77ae1c58aaee3b95f",
            "d00cb926a0e2637a0bd12392089a4028027b7d91",
            "fb3eadd16b029556129a24c77ae1c58aaee3b95f",
        ],
    },
    "txn-mixed/sync": {
        663: [
            "1b5993064f081c1ba5c65a9d477fcab07c416434",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
            "81dc7882757f5b1a252c653e3fe75426277bab1e",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
            "1b5993064f081c1ba5c65a9d477fcab07c416434",
            "361ec344f920894ffe64dc76cf3300a61e2f60ef",
        ],
        1386: [
            "e1e6f74c20993e05be06b2993c6e79815d1ac7b8",
            "c6e3bc09cceb41ca911fba8df2a60b9274254e8e",
            "e1e6f74c20993e05be06b2993c6e79815d1ac7b8",
            "c6e3bc09cceb41ca911fba8df2a60b9274254e8e",
            "e1e6f74c20993e05be06b2993c6e79815d1ac7b8",
            "c6e3bc09cceb41ca911fba8df2a60b9274254e8e",
        ],
    },
    "ycsb-a/async": {
        165: [
            "783b56bbfa960274e616578c1f1b92483bdd5523",
            "2b280b69f4e5759b463dc7a8d672fc57d55398c1",
            "11fd461b7ea9d8aa0b7768f4942ab19540a6e820",
            "2b280b69f4e5759b463dc7a8d672fc57d55398c1",
            "11fd461b7ea9d8aa0b7768f4942ab19540a6e820",
            "2b280b69f4e5759b463dc7a8d672fc57d55398c1",
        ],
        562: [
            "1a8a1826793560069c60775bb5d01a13e8d9ae9a",
            "f91671d796d15b529e643b31710834ae4e580c6c",
            "e5797970167697781071f57a9982b2757d00d810",
            "f91671d796d15b529e643b31710834ae4e580c6c",
            "c80877c1cec8d60ab286dc9b564add3012a3e8cb",
            "f91671d796d15b529e643b31710834ae4e580c6c",
        ],
    },
    "ycsb-a/sync": {
        165: [
            "ed7d1beb267e5140e9d9921eb7f3c75c8c18f72f",
            "82b17bbe67fd8a7b7ea28ae5e08fc7bb3459febb",
            "ed7d1beb267e5140e9d9921eb7f3c75c8c18f72f",
            "82b17bbe67fd8a7b7ea28ae5e08fc7bb3459febb",
            "ed7d1beb267e5140e9d9921eb7f3c75c8c18f72f",
            "82b17bbe67fd8a7b7ea28ae5e08fc7bb3459febb",
        ],
        356: [
            "2fe38b005959f7babb901965505beb267c809b39",
            "9c45fc8390509a3b0061346dd75cf0c3f85cf376",
            "c530d26fec32a714a8d82ec76f05a6536715db8e",
            "9c45fc8390509a3b0061346dd75cf0c3f85cf376",
            "db9924097e95a3199f06757d7daea7e0140c05ba",
            "9c45fc8390509a3b0061346dd75cf0c3f85cf376",
        ],
    },
}


@pytest.fixture(scope="module")
def observed() -> Dict[str, Dict[int, List[str]]]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, __file__],
        env=env, check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    return {
        unit: {int(point): row for point, row in rows.items()}
        for unit, rows in json.loads(out).items()
    }


def test_every_unit_is_pinned():
    assert sorted(PINNED) == units()


@pytest.mark.parametrize("unit", units())
def test_crash_image_digests(observed, unit):
    assert observed[unit] == PINNED[unit]


if __name__ == "__main__":
    print(json.dumps({unit: unit_digests(unit) for unit in units()}))
