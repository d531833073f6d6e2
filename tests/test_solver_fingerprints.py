"""Frozen outputs of the RSM and BSM solvers on the five CLI datasets.

Each constant is a sha256 over one run's solution, the ``float.hex()``
of every group value, ``oracle_calls``, ``feasible`` and the scalar
``extra`` fields (floats again as ``.hex()``; list-valued fields such as
MWU's ``final_weights`` are left out). A refactor of Saturate, greedy
cover or either BSM algorithm that moves any of these bits moves the
hash. The default run covers ``k = 5`` at ``tau`` in ``{0, 0.5}``; the
``k`` in ``{3, 10}`` by ``tau`` in ``{0, 0.5, 0.9}`` grid is marked
``slow``. The influence objective is sampled with
:data:`INFLUENCE_SAMPLES` RR sets at seed 0.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core.problem import BSMProblem
from repro.core.saturate import saturate
from repro.datasets.registry import load_dataset

DATASETS = (
    "rand-mc-c2", "rand-fl-c2", "rand-im-c2", "rec-latent-c2", "summ-blobs-c2",
)
ALGORITHMS = (
    "saturate", "smsc", "mwu", "bsm-tsgreedy", "bsm-saturate", "bsm-saturate-ls",
)
INFLUENCE_SAMPLES = 300

FINGERPRINTS = {
    ('rand-fl-c2', 'bsm-saturate', 3, 0.0): "d9d05ad15f5c3e2ce0f286bebe58ea513da04f50f97938759d10d60797b1e6ef",
    ('rand-fl-c2', 'bsm-saturate', 3, 0.5): "94490c28d80460af55502d990d01feebb798e004926469a231afe7b87d23c9c4",
    ('rand-fl-c2', 'bsm-saturate', 3, 0.9): "1ce3d5a90cbfa3dba26458b165bb949aab046e3a07a3797e25371e279fd1c6c4",
    ('rand-fl-c2', 'bsm-saturate', 5, 0.0): "fb7d1f90a598281aba696a02a1cc1aceaa807140f2ac60df921a1d7e1bb8c586",
    ('rand-fl-c2', 'bsm-saturate', 5, 0.5): "66282cb66535b15bbb954ce9b3753f84998e4649d4501901cde2c3842f95830b",
    ('rand-fl-c2', 'bsm-saturate', 10, 0.0): "109537c477e3b40289a4e88734e66c8201c9efbf543768763ef33afab94aa7a9",
    ('rand-fl-c2', 'bsm-saturate', 10, 0.5): "0f167cf0f0b6bc2b13e8a52ee55d90cd73ed56096f234445005021670153516e",
    ('rand-fl-c2', 'bsm-saturate', 10, 0.9): "3710d0bea0cf96c78fe485c740bc06118d5b18d4134f2ad4168e07f56ca34ec1",
    ('rand-fl-c2', 'bsm-saturate-ls', 3, 0.0): "d9d05ad15f5c3e2ce0f286bebe58ea513da04f50f97938759d10d60797b1e6ef",
    ('rand-fl-c2', 'bsm-saturate-ls', 3, 0.5): "94490c28d80460af55502d990d01feebb798e004926469a231afe7b87d23c9c4",
    ('rand-fl-c2', 'bsm-saturate-ls', 3, 0.9): "1ce3d5a90cbfa3dba26458b165bb949aab046e3a07a3797e25371e279fd1c6c4",
    ('rand-fl-c2', 'bsm-saturate-ls', 5, 0.0): "fb7d1f90a598281aba696a02a1cc1aceaa807140f2ac60df921a1d7e1bb8c586",
    ('rand-fl-c2', 'bsm-saturate-ls', 5, 0.5): "d1e95a5e4b6d6697e00f4c5c633992e6da0d092a41c8579e571816a53e0a96c2",
    ('rand-fl-c2', 'bsm-saturate-ls', 10, 0.0): "22f6d51c6f2daab9e76002f30399c00be6d5356eae6b5f45bc5e20d9b54bfd20",
    ('rand-fl-c2', 'bsm-saturate-ls', 10, 0.5): "c6b10c97857581cd5b25c82688e08ef9b9982657844dd9465edd5dc77e8f3b73",
    ('rand-fl-c2', 'bsm-saturate-ls', 10, 0.9): "a7811d3e7f048fe98b8f1c901cfa9b2ae8ac8404375d8d006b6b9f995276a620",
    ('rand-fl-c2', 'bsm-tsgreedy', 3, 0.0): "68b7a8285cc93bb2981c1b2206ffca4c24aaa1814a0887b89eb985c2dda2680c",
    ('rand-fl-c2', 'bsm-tsgreedy', 3, 0.5): "d0822c2ffe26654484a3ffa8e0614510b69c6c612ad982d662e7dee8ca431a57",
    ('rand-fl-c2', 'bsm-tsgreedy', 3, 0.9): "00c0170395d47097f6ce38008530e853e0ee069f2e18bd9ae4ee48b9991275ea",
    ('rand-fl-c2', 'bsm-tsgreedy', 5, 0.0): "4b4a155c736e12d78680ef039991346fc9ac43751fb5fb76e4c10bbf8eaa79fa",
    ('rand-fl-c2', 'bsm-tsgreedy', 5, 0.5): "c272abdb2d4ad6dfaef32c3f2914ecd9af58c635115ce537f8f088c012687e19",
    ('rand-fl-c2', 'bsm-tsgreedy', 10, 0.0): "1d29ba201624da4ccd5967d7e4a90d05f7ce5c0fa6e24e54c798067f73ba9c94",
    ('rand-fl-c2', 'bsm-tsgreedy', 10, 0.5): "c067894c049dee8a3851fc9a8d2bab97ef06b16067aa0f1c6901711fa3d1eff4",
    ('rand-fl-c2', 'bsm-tsgreedy', 10, 0.9): "04dd0367b1bb9c5d239c6639c26ff312b72aa1d859ee64243b388e84c7cb659b",
    ('rand-fl-c2', 'mwu', 3, 0.0): "ec693e0790b26039b6db0cc2c2081dde1444bf6375964b480d29ee7b0d3380dd",
    ('rand-fl-c2', 'mwu', 3, 0.5): "ec693e0790b26039b6db0cc2c2081dde1444bf6375964b480d29ee7b0d3380dd",
    ('rand-fl-c2', 'mwu', 3, 0.9): "ec693e0790b26039b6db0cc2c2081dde1444bf6375964b480d29ee7b0d3380dd",
    ('rand-fl-c2', 'mwu', 5, 0.0): "2cf4052ef0e4cf52926a3c94fe8eaf2b8f45481552a5bb5aa63f081f2e837381",
    ('rand-fl-c2', 'mwu', 5, 0.5): "2cf4052ef0e4cf52926a3c94fe8eaf2b8f45481552a5bb5aa63f081f2e837381",
    ('rand-fl-c2', 'mwu', 10, 0.0): "473713a074997b99b5394cb78510963f371bb4b66804a32da1ee6b0b690393cb",
    ('rand-fl-c2', 'mwu', 10, 0.5): "473713a074997b99b5394cb78510963f371bb4b66804a32da1ee6b0b690393cb",
    ('rand-fl-c2', 'mwu', 10, 0.9): "473713a074997b99b5394cb78510963f371bb4b66804a32da1ee6b0b690393cb",
    ('rand-fl-c2', 'saturate', 3, 0.0): "4b49dc4606edcddb2cfb463a653bfaac465b96cef3e8af84e2e5cdfe15499d8c",
    ('rand-fl-c2', 'saturate', 3, 0.5): "4b49dc4606edcddb2cfb463a653bfaac465b96cef3e8af84e2e5cdfe15499d8c",
    ('rand-fl-c2', 'saturate', 3, 0.9): "4b49dc4606edcddb2cfb463a653bfaac465b96cef3e8af84e2e5cdfe15499d8c",
    ('rand-fl-c2', 'saturate', 5, 0.0): "77c7cbe4df1062f3258ddb6b462b556d366e9fdfa72e1bbcb2db3ae2c6bcf42e",
    ('rand-fl-c2', 'saturate', 5, 0.5): "77c7cbe4df1062f3258ddb6b462b556d366e9fdfa72e1bbcb2db3ae2c6bcf42e",
    ('rand-fl-c2', 'saturate', 10, 0.0): "4492cfaee1ce3709af185fa4d699e5a654111e859c188db29e8dda080641f06f",
    ('rand-fl-c2', 'saturate', 10, 0.5): "4492cfaee1ce3709af185fa4d699e5a654111e859c188db29e8dda080641f06f",
    ('rand-fl-c2', 'saturate', 10, 0.9): "4492cfaee1ce3709af185fa4d699e5a654111e859c188db29e8dda080641f06f",
    ('rand-fl-c2', 'smsc', 3, 0.0): "f3fc9c19ae72362beeaf1ca118a1bb996c7b0a7a0b35dd13bf77afe597b043c6",
    ('rand-fl-c2', 'smsc', 3, 0.5): "f3fc9c19ae72362beeaf1ca118a1bb996c7b0a7a0b35dd13bf77afe597b043c6",
    ('rand-fl-c2', 'smsc', 3, 0.9): "f3fc9c19ae72362beeaf1ca118a1bb996c7b0a7a0b35dd13bf77afe597b043c6",
    ('rand-fl-c2', 'smsc', 5, 0.0): "e499e29977e34dca253dee498e1b23a79c7622bd4789918e3548e24b9ba98645",
    ('rand-fl-c2', 'smsc', 5, 0.5): "e499e29977e34dca253dee498e1b23a79c7622bd4789918e3548e24b9ba98645",
    ('rand-fl-c2', 'smsc', 10, 0.0): "095594492779f1392f9cc914aae80da895c1bc8a5bfa62f44425621295090a44",
    ('rand-fl-c2', 'smsc', 10, 0.5): "095594492779f1392f9cc914aae80da895c1bc8a5bfa62f44425621295090a44",
    ('rand-fl-c2', 'smsc', 10, 0.9): "095594492779f1392f9cc914aae80da895c1bc8a5bfa62f44425621295090a44",
    ('rand-im-c2', 'bsm-saturate', 3, 0.0): "42f73f45f20987f3d768f297bf009c24f25084eb97c45694936d24c55b5c946a",
    ('rand-im-c2', 'bsm-saturate', 3, 0.5): "48e4b9d7291d0c79661f954f06cb0ecbe9a6c030ab1635278b7f4e758a23219f",
    ('rand-im-c2', 'bsm-saturate', 3, 0.9): "197d5fad496a2fbfadaf6eee9969f499a0c479bd026c21634b9f702a9058007d",
    ('rand-im-c2', 'bsm-saturate', 5, 0.0): "528236cfac70600b0e1d56fe5d50390ba5997a4be42097d258725fdb8a721e5e",
    ('rand-im-c2', 'bsm-saturate', 5, 0.5): "fa27b71a43624d2444cdf4ab5ef4ddec1f2567b9d1f903d6c8c5085073c585a2",
    ('rand-im-c2', 'bsm-saturate', 10, 0.0): "9405ad9f35fd8156cb2c9eabc9981dff7b47c2e1d9f0355e18ea37a1429b3014",
    ('rand-im-c2', 'bsm-saturate', 10, 0.5): "6278a068f3d4aa83b0b21302c1b2cba81ad2576c048e63075eb2a9f05f14e590",
    ('rand-im-c2', 'bsm-saturate', 10, 0.9): "2715234738299558dc2b2dc283476398486f7488a201f38714c9daeaa6b40485",
    ('rand-im-c2', 'bsm-saturate-ls', 3, 0.0): "c7ccf93c8cbe168c0fdbd9754cf6b7778b19489d029db46fc1c79ea50329bc7f",
    ('rand-im-c2', 'bsm-saturate-ls', 3, 0.5): "afe6245c2c616803e73871f456b645f6da427523c7cad9fc3d397e50d38e21fd",
    ('rand-im-c2', 'bsm-saturate-ls', 3, 0.9): "7bb0d4bd4d5fdbcc098d29b778a0e65847d1d765ae017edd20e9abd4ad914504",
    ('rand-im-c2', 'bsm-saturate-ls', 5, 0.0): "30eebab2844c9e4539c6a591771dea33847b8d5e4781cfadd69367083b407f6d",
    ('rand-im-c2', 'bsm-saturate-ls', 5, 0.5): "ac45a74bca2c6ca283a70299f79fc744dc57193a2558e11196af0efd4f65a70f",
    ('rand-im-c2', 'bsm-saturate-ls', 10, 0.0): "b3d5be46b9b519ecd68de8336f0d15b493d46e93ce0a222ee90f55d8b0c9d9f1",
    ('rand-im-c2', 'bsm-saturate-ls', 10, 0.5): "ddc40dda4e41c640e096d4f2a036b421676703992bc2f2309691a0bd0fc14427",
    ('rand-im-c2', 'bsm-saturate-ls', 10, 0.9): "a913cad0bd6e8d01043d1586dadae860dd44d36e7915e48cbef825e8dcff7432",
    ('rand-im-c2', 'bsm-tsgreedy', 3, 0.0): "5fa11935e5355847a33e30513bcde717dbd0547dff6d7b1d3646771a98dd2c83",
    ('rand-im-c2', 'bsm-tsgreedy', 3, 0.5): "0069f78e0ab7749f54d9396dd90ea9a50157395cac0b66fdbca539dfca6bf7fa",
    ('rand-im-c2', 'bsm-tsgreedy', 3, 0.9): "7a5a6bbcad648243905a3290a0f517bc762d00ca1257d054eaf30146cac64a2b",
    ('rand-im-c2', 'bsm-tsgreedy', 5, 0.0): "1a7a748b5e194fbca78ca539716ac629427c6c10f531156af2e56cacc8910a4b",
    ('rand-im-c2', 'bsm-tsgreedy', 5, 0.5): "0714d05bc03b00c056215e657e7ac1f7725e41cf08f1d48a1d925b4ccebe48c6",
    ('rand-im-c2', 'bsm-tsgreedy', 10, 0.0): "419afeb011d9cfe30e9b050564713af7eb558b09aab6d04de37a4737f3c331ae",
    ('rand-im-c2', 'bsm-tsgreedy', 10, 0.5): "435e348d0eb6ed30cf6c33641f1113376db1cac1320bdc2ae09aa374e127fa60",
    ('rand-im-c2', 'bsm-tsgreedy', 10, 0.9): "8c4ba8f2450a883a936b1bb71e0955586c3eb4c5afe246e93a8c119e8cf112f3",
    ('rand-im-c2', 'mwu', 3, 0.0): "cecc369fc0b9ff88f2c80732c8825cc75c4356a90f6d6e8c06339e6189463fe6",
    ('rand-im-c2', 'mwu', 3, 0.5): "cecc369fc0b9ff88f2c80732c8825cc75c4356a90f6d6e8c06339e6189463fe6",
    ('rand-im-c2', 'mwu', 3, 0.9): "cecc369fc0b9ff88f2c80732c8825cc75c4356a90f6d6e8c06339e6189463fe6",
    ('rand-im-c2', 'mwu', 5, 0.0): "2a884ac0c20f68962541ae5fed4665465c35cab2c34864d9043c6c090a5db48f",
    ('rand-im-c2', 'mwu', 5, 0.5): "2a884ac0c20f68962541ae5fed4665465c35cab2c34864d9043c6c090a5db48f",
    ('rand-im-c2', 'mwu', 10, 0.0): "27d39f88bef9bddabf0051943921db60843fd5ba1996260b87a4093f80498757",
    ('rand-im-c2', 'mwu', 10, 0.5): "27d39f88bef9bddabf0051943921db60843fd5ba1996260b87a4093f80498757",
    ('rand-im-c2', 'mwu', 10, 0.9): "27d39f88bef9bddabf0051943921db60843fd5ba1996260b87a4093f80498757",
    ('rand-im-c2', 'saturate', 3, 0.0): "c29c184361fb040a4cbd0591f1bdc7741dec021d8fa25c2e47dfc0e8b1d3e3a8",
    ('rand-im-c2', 'saturate', 3, 0.5): "c29c184361fb040a4cbd0591f1bdc7741dec021d8fa25c2e47dfc0e8b1d3e3a8",
    ('rand-im-c2', 'saturate', 3, 0.9): "c29c184361fb040a4cbd0591f1bdc7741dec021d8fa25c2e47dfc0e8b1d3e3a8",
    ('rand-im-c2', 'saturate', 5, 0.0): "faefa9bad30342e7eec3d11cbfa368b0c50ff4040826e34eab82822da2e680d4",
    ('rand-im-c2', 'saturate', 5, 0.5): "faefa9bad30342e7eec3d11cbfa368b0c50ff4040826e34eab82822da2e680d4",
    ('rand-im-c2', 'saturate', 10, 0.0): "d3cd88ecd6c3d3c15daf72edb09bcc0f56d7c72b770e590c73c6834b2ceca7b3",
    ('rand-im-c2', 'saturate', 10, 0.5): "d3cd88ecd6c3d3c15daf72edb09bcc0f56d7c72b770e590c73c6834b2ceca7b3",
    ('rand-im-c2', 'saturate', 10, 0.9): "d3cd88ecd6c3d3c15daf72edb09bcc0f56d7c72b770e590c73c6834b2ceca7b3",
    ('rand-im-c2', 'smsc', 3, 0.0): "a2a3c87a999796504cdcfefb2ce4a0e2f267c40ba06de9a9eddec9d08b148d29",
    ('rand-im-c2', 'smsc', 3, 0.5): "a2a3c87a999796504cdcfefb2ce4a0e2f267c40ba06de9a9eddec9d08b148d29",
    ('rand-im-c2', 'smsc', 3, 0.9): "a2a3c87a999796504cdcfefb2ce4a0e2f267c40ba06de9a9eddec9d08b148d29",
    ('rand-im-c2', 'smsc', 5, 0.0): "cf7f89d15c55b2542ac7ba0a92416d4e9a1e1cde8f4c10c0dbeac32eca8eae48",
    ('rand-im-c2', 'smsc', 5, 0.5): "cf7f89d15c55b2542ac7ba0a92416d4e9a1e1cde8f4c10c0dbeac32eca8eae48",
    ('rand-im-c2', 'smsc', 10, 0.0): "58f689a6b8dcc2cc97e5492bdfa07fbe886dec6257252024cd77d756c10d7dc3",
    ('rand-im-c2', 'smsc', 10, 0.5): "58f689a6b8dcc2cc97e5492bdfa07fbe886dec6257252024cd77d756c10d7dc3",
    ('rand-im-c2', 'smsc', 10, 0.9): "58f689a6b8dcc2cc97e5492bdfa07fbe886dec6257252024cd77d756c10d7dc3",
    ('rand-mc-c2', 'bsm-saturate', 3, 0.0): "64aded72eb0476aeafc0d1050f6ae76da8db131ec2cbdc99e951efa4f927cf0f",
    ('rand-mc-c2', 'bsm-saturate', 3, 0.5): "90d1b9f4c1a16c9e2087926c7ba7f1ccd9f2e53a7f55da753d1a3a7499733dbf",
    ('rand-mc-c2', 'bsm-saturate', 3, 0.9): "82ff67a386b3f645ab80be2a49baae7a96de796ef589ff8176f5e5832873a858",
    ('rand-mc-c2', 'bsm-saturate', 5, 0.0): "9e940210eeee315993f42c7f2ad539d87c120b03d5453748f2d0e0669b6240bb",
    ('rand-mc-c2', 'bsm-saturate', 5, 0.5): "16814efa1dec3694f8d8196772cabe7cae367f2720b62bbde7a59bbdf717e6b9",
    ('rand-mc-c2', 'bsm-saturate', 10, 0.0): "f9ad1236b21f9aa3e7c503f9deefaea8bbad7e65887bb817a979a9295e15eb8d",
    ('rand-mc-c2', 'bsm-saturate', 10, 0.5): "50f2a6bf19a8c8fe49ba6c6081065b47508651cb23b966797f3c2da781a426cd",
    ('rand-mc-c2', 'bsm-saturate', 10, 0.9): "f224d577f121c5f3d202a4d93bf8ef722a579f51d866485fed5f26f1d6fc68fb",
    ('rand-mc-c2', 'bsm-saturate-ls', 3, 0.0): "5f351d451703c5bae6c7349093de7a39804b83fceea75206ea79af02ee8cd945",
    ('rand-mc-c2', 'bsm-saturate-ls', 3, 0.5): "8bcd791d0cb18b9e8162810e796056cd59fb5feecb6f58be5a3f2490101a82f9",
    ('rand-mc-c2', 'bsm-saturate-ls', 3, 0.9): "6783a7598a9f6c7b7e3292edf1b3cf6a0c6a0f4a2e5495d184748434fb56e14c",
    ('rand-mc-c2', 'bsm-saturate-ls', 5, 0.0): "9e940210eeee315993f42c7f2ad539d87c120b03d5453748f2d0e0669b6240bb",
    ('rand-mc-c2', 'bsm-saturate-ls', 5, 0.5): "229ee7b8df57110ab5610ec4ce63e707c7e27ee69d15b8e1c8de09963f003fa2",
    ('rand-mc-c2', 'bsm-saturate-ls', 10, 0.0): "f9ad1236b21f9aa3e7c503f9deefaea8bbad7e65887bb817a979a9295e15eb8d",
    ('rand-mc-c2', 'bsm-saturate-ls', 10, 0.5): "50f2a6bf19a8c8fe49ba6c6081065b47508651cb23b966797f3c2da781a426cd",
    ('rand-mc-c2', 'bsm-saturate-ls', 10, 0.9): "ea5d2c7289a7f37d7acd2e6d0f5e9ff208fc7558ad68e85bfe72f616c15054ec",
    ('rand-mc-c2', 'bsm-tsgreedy', 3, 0.0): "cec57780f5bd0594dd7322124f0cc265ebd1ce4ab271c23ceff4b9bea509858d",
    ('rand-mc-c2', 'bsm-tsgreedy', 3, 0.5): "93cc4614af937456af00f5fff9d57745510cc501d8c4b37fb78fcd46b81424c4",
    ('rand-mc-c2', 'bsm-tsgreedy', 3, 0.9): "3f21f331b60a7105645978c151e77691c65981a7a09792a335635aae58832940",
    ('rand-mc-c2', 'bsm-tsgreedy', 5, 0.0): "6b9f9590a2f4a53c8791f4aa11fd14c3ef3127ce93b4d43f4ae89f3e1a9ae93a",
    ('rand-mc-c2', 'bsm-tsgreedy', 5, 0.5): "ecd59c45c9f3780324cee72a389904ee0edddb1bf81a289c11e4810fadf024e0",
    ('rand-mc-c2', 'bsm-tsgreedy', 10, 0.0): "e6bd42b70f9118802b0e2d5a39f59fde4241d92c9a8314644a759571f630b18f",
    ('rand-mc-c2', 'bsm-tsgreedy', 10, 0.5): "f7b906b8434c07b360b18ed2e5f190469f618882766ce2887b44a4621dad2cee",
    ('rand-mc-c2', 'bsm-tsgreedy', 10, 0.9): "ebbf473f893f4021cb4a74965088f36c25431f362cfffb6203afe6fe5cad0972",
    ('rand-mc-c2', 'mwu', 3, 0.0): "fdc601f78effe912b8593885c06fbce24f8177b7dd74bc9aba1b4a087c14ee6a",
    ('rand-mc-c2', 'mwu', 3, 0.5): "fdc601f78effe912b8593885c06fbce24f8177b7dd74bc9aba1b4a087c14ee6a",
    ('rand-mc-c2', 'mwu', 3, 0.9): "fdc601f78effe912b8593885c06fbce24f8177b7dd74bc9aba1b4a087c14ee6a",
    ('rand-mc-c2', 'mwu', 5, 0.0): "8d5b3aff4ab1368b00d986f63d018867ab6b469826a382b2e5b1bfbdbe652e18",
    ('rand-mc-c2', 'mwu', 5, 0.5): "8d5b3aff4ab1368b00d986f63d018867ab6b469826a382b2e5b1bfbdbe652e18",
    ('rand-mc-c2', 'mwu', 10, 0.0): "b2f6ab9413a3844e0db9fd01444ad2bb459e064b831c039a976407f481473e11",
    ('rand-mc-c2', 'mwu', 10, 0.5): "b2f6ab9413a3844e0db9fd01444ad2bb459e064b831c039a976407f481473e11",
    ('rand-mc-c2', 'mwu', 10, 0.9): "b2f6ab9413a3844e0db9fd01444ad2bb459e064b831c039a976407f481473e11",
    ('rand-mc-c2', 'saturate', 3, 0.0): "65e6e79595a81ef0ca77941b2950058352b9cff9803184847d31d9392c3938aa",
    ('rand-mc-c2', 'saturate', 3, 0.5): "65e6e79595a81ef0ca77941b2950058352b9cff9803184847d31d9392c3938aa",
    ('rand-mc-c2', 'saturate', 3, 0.9): "65e6e79595a81ef0ca77941b2950058352b9cff9803184847d31d9392c3938aa",
    ('rand-mc-c2', 'saturate', 5, 0.0): "74e213b9ac27ffb5273a06883f48a0a49421b7624d6d5384966a11cf7789f06e",
    ('rand-mc-c2', 'saturate', 5, 0.5): "74e213b9ac27ffb5273a06883f48a0a49421b7624d6d5384966a11cf7789f06e",
    ('rand-mc-c2', 'saturate', 10, 0.0): "614b0370299d448c9125da8a4cb7c6d15b1e06b796ede9ef4b3e13baf7e2d8f1",
    ('rand-mc-c2', 'saturate', 10, 0.5): "614b0370299d448c9125da8a4cb7c6d15b1e06b796ede9ef4b3e13baf7e2d8f1",
    ('rand-mc-c2', 'saturate', 10, 0.9): "614b0370299d448c9125da8a4cb7c6d15b1e06b796ede9ef4b3e13baf7e2d8f1",
    ('rand-mc-c2', 'smsc', 3, 0.0): "02be1137be3ea4c8aebebe0b98874f866820a383e09758881d7cb6397eec6a18",
    ('rand-mc-c2', 'smsc', 3, 0.5): "02be1137be3ea4c8aebebe0b98874f866820a383e09758881d7cb6397eec6a18",
    ('rand-mc-c2', 'smsc', 3, 0.9): "02be1137be3ea4c8aebebe0b98874f866820a383e09758881d7cb6397eec6a18",
    ('rand-mc-c2', 'smsc', 5, 0.0): "6cff1f6f0d9d0124ffdb52323941a6e77e7438d0cedacaa1c2ee5120f2feae8d",
    ('rand-mc-c2', 'smsc', 5, 0.5): "6cff1f6f0d9d0124ffdb52323941a6e77e7438d0cedacaa1c2ee5120f2feae8d",
    ('rand-mc-c2', 'smsc', 10, 0.0): "f2c4c09e93c3a408983f696624cf6c57b67c894d1d43b0d9fd6283d6843209da",
    ('rand-mc-c2', 'smsc', 10, 0.5): "f2c4c09e93c3a408983f696624cf6c57b67c894d1d43b0d9fd6283d6843209da",
    ('rand-mc-c2', 'smsc', 10, 0.9): "f2c4c09e93c3a408983f696624cf6c57b67c894d1d43b0d9fd6283d6843209da",
    ('rec-latent-c2', 'bsm-saturate', 3, 0.0): "922dd36f5771a7b71c938eede2c5ab901b579434585edf808c5ac45cc5f74cc7",
    ('rec-latent-c2', 'bsm-saturate', 3, 0.5): "e6280a3928ade1aefc0f401645a99f302939e304326f387707fb942c2c3d2051",
    ('rec-latent-c2', 'bsm-saturate', 3, 0.9): "c3b16eda55d2458f1887176ce3bfb4f6121fac6894840008904a9418de43524f",
    ('rec-latent-c2', 'bsm-saturate', 5, 0.0): "f9a6035ee219da0dc63b2860dfa664d9285a54a3f63993aa3cd051aee3ff0e84",
    ('rec-latent-c2', 'bsm-saturate', 5, 0.5): "db3efb2e6586fd5404e84b5a2d25292d25a9ec9bfe008425f5b8b651a31c4fe7",
    ('rec-latent-c2', 'bsm-saturate', 10, 0.0): "8d633fe346b2cf945ca77877a864784664b3fb08ee6426ff9e499f9a89a77ad9",
    ('rec-latent-c2', 'bsm-saturate', 10, 0.5): "2b280379cd044217e5733675778b82dd67b85e10d1cdb2a2364ce73bbf6e0bb2",
    ('rec-latent-c2', 'bsm-saturate', 10, 0.9): "d75dcd471b4f67addba7cc9f68544bd888d21f80e8ca5d4dd0b9e393c8caa991",
    ('rec-latent-c2', 'bsm-saturate-ls', 3, 0.0): "922dd36f5771a7b71c938eede2c5ab901b579434585edf808c5ac45cc5f74cc7",
    ('rec-latent-c2', 'bsm-saturate-ls', 3, 0.5): "aa17e6d3819c4940178b0ea9218beb6d8b96031cfa67007af657fcca38c15b47",
    ('rec-latent-c2', 'bsm-saturate-ls', 3, 0.9): "b12b7fbd91d55751414a7b6db2695429fb21eb6e2c3668ff5b0aaf6255a9ffd4",
    ('rec-latent-c2', 'bsm-saturate-ls', 5, 0.0): "f9a6035ee219da0dc63b2860dfa664d9285a54a3f63993aa3cd051aee3ff0e84",
    ('rec-latent-c2', 'bsm-saturate-ls', 5, 0.5): "036c55824345a5957cbab0cacb492bfb19e9a5afdc32e092ee6012280b770c6b",
    ('rec-latent-c2', 'bsm-saturate-ls', 10, 0.0): "70c2cd13a471a5adfadf9b1208a27a24655fcb3d3e27458e0d5e1433e42d39de",
    ('rec-latent-c2', 'bsm-saturate-ls', 10, 0.5): "e44d9cb582e91886f57f698946d918efe3499c8ca01b353865c429aed95777e2",
    ('rec-latent-c2', 'bsm-saturate-ls', 10, 0.9): "6406c1c04bd26bf9d84811f31e806a5a442be28ceca99ec652ca75cbfb76855e",
    ('rec-latent-c2', 'bsm-tsgreedy', 3, 0.0): "53c1be1b2f10a18ccd9bdabd2aca886df4a1b54dea1d4e1d92216542aeeb72e9",
    ('rec-latent-c2', 'bsm-tsgreedy', 3, 0.5): "2e8dc0e71a4ca6998e18bfad2a37fece08402562914687628e21a212f05f9c3d",
    ('rec-latent-c2', 'bsm-tsgreedy', 3, 0.9): "d6f2cdbf277119e36b2923f8ef813a879246e551241ea419b11076c01d42b46f",
    ('rec-latent-c2', 'bsm-tsgreedy', 5, 0.0): "71dba31698fe184c67c25cfdef49d2b4c88f2959539c230813d5a5f19f00a15c",
    ('rec-latent-c2', 'bsm-tsgreedy', 5, 0.5): "fc57fdce6d2ee4ddfc1828dd20f877318f7510644e6dbdaf06ddf06570eb0a32",
    ('rec-latent-c2', 'bsm-tsgreedy', 10, 0.0): "250f2eef5044f6a73b66baddca2950879b5c3d35264fded282063511a96cb30d",
    ('rec-latent-c2', 'bsm-tsgreedy', 10, 0.5): "945e573d7ada8bae4eb92c49567f0d62f826d0bc71031e07a466ed658a254054",
    ('rec-latent-c2', 'bsm-tsgreedy', 10, 0.9): "a550e43624bf2b1fd8eea07622213d010ba633408ae83ef5f396090fda82a032",
    ('rec-latent-c2', 'mwu', 3, 0.0): "8bc2c7724ab5584719891b1b26094d473e928844d13fe53a751b970b7d5839ba",
    ('rec-latent-c2', 'mwu', 3, 0.5): "8bc2c7724ab5584719891b1b26094d473e928844d13fe53a751b970b7d5839ba",
    ('rec-latent-c2', 'mwu', 3, 0.9): "8bc2c7724ab5584719891b1b26094d473e928844d13fe53a751b970b7d5839ba",
    ('rec-latent-c2', 'mwu', 5, 0.0): "2c4b975bd27b9ddf2d3156a6a16b1379022abd0e9dbbae58bf206d97da6f2117",
    ('rec-latent-c2', 'mwu', 5, 0.5): "2c4b975bd27b9ddf2d3156a6a16b1379022abd0e9dbbae58bf206d97da6f2117",
    ('rec-latent-c2', 'mwu', 10, 0.0): "044be7c5996ab0cf3a97bbb6de3b996ace3a26f9b3284f81386068bae955de1c",
    ('rec-latent-c2', 'mwu', 10, 0.5): "044be7c5996ab0cf3a97bbb6de3b996ace3a26f9b3284f81386068bae955de1c",
    ('rec-latent-c2', 'mwu', 10, 0.9): "044be7c5996ab0cf3a97bbb6de3b996ace3a26f9b3284f81386068bae955de1c",
    ('rec-latent-c2', 'saturate', 3, 0.0): "e32683ee605cebbcc4dde0856eb822303221be9f41b57cee7a0441153609996e",
    ('rec-latent-c2', 'saturate', 3, 0.5): "e32683ee605cebbcc4dde0856eb822303221be9f41b57cee7a0441153609996e",
    ('rec-latent-c2', 'saturate', 3, 0.9): "e32683ee605cebbcc4dde0856eb822303221be9f41b57cee7a0441153609996e",
    ('rec-latent-c2', 'saturate', 5, 0.0): "370dc65d5cb84428b727cd85f5e05a31546208bbe91d2af9d1d5f253c26ca4c8",
    ('rec-latent-c2', 'saturate', 5, 0.5): "370dc65d5cb84428b727cd85f5e05a31546208bbe91d2af9d1d5f253c26ca4c8",
    ('rec-latent-c2', 'saturate', 10, 0.0): "5960f6cb521bb47aa2a10d5ffdc0edec9da519223958bc0c6e28e8689122bba0",
    ('rec-latent-c2', 'saturate', 10, 0.5): "5960f6cb521bb47aa2a10d5ffdc0edec9da519223958bc0c6e28e8689122bba0",
    ('rec-latent-c2', 'saturate', 10, 0.9): "5960f6cb521bb47aa2a10d5ffdc0edec9da519223958bc0c6e28e8689122bba0",
    ('rec-latent-c2', 'smsc', 3, 0.0): "9a147c4851dae33a66b49d22ca4d0b2c1254a358fbf228ca311d59a3caed10c9",
    ('rec-latent-c2', 'smsc', 3, 0.5): "9a147c4851dae33a66b49d22ca4d0b2c1254a358fbf228ca311d59a3caed10c9",
    ('rec-latent-c2', 'smsc', 3, 0.9): "9a147c4851dae33a66b49d22ca4d0b2c1254a358fbf228ca311d59a3caed10c9",
    ('rec-latent-c2', 'smsc', 5, 0.0): "2c0bbf553c06cfab2bc275b282434430ed52f8d494d5f01ad77e97f940446538",
    ('rec-latent-c2', 'smsc', 5, 0.5): "2c0bbf553c06cfab2bc275b282434430ed52f8d494d5f01ad77e97f940446538",
    ('rec-latent-c2', 'smsc', 10, 0.0): "6294a7a592d39cbee75d8b77ac6c3137956f15fb41cfcd999d427114d8d59e83",
    ('rec-latent-c2', 'smsc', 10, 0.5): "6294a7a592d39cbee75d8b77ac6c3137956f15fb41cfcd999d427114d8d59e83",
    ('rec-latent-c2', 'smsc', 10, 0.9): "6294a7a592d39cbee75d8b77ac6c3137956f15fb41cfcd999d427114d8d59e83",
    ('summ-blobs-c2', 'bsm-saturate', 3, 0.0): "3fe74d1119c262e15e9db0d04e6137c5eaae94cef100b328a23bd2e4517bb614",
    ('summ-blobs-c2', 'bsm-saturate', 3, 0.5): "e8105f1f1aface56197e062647126d36d14a04bb7a2d80ebda7fcab1e3abbf53",
    ('summ-blobs-c2', 'bsm-saturate', 3, 0.9): "a8d44a420702e970da266d62db2a8605e6e03231ae5a0b68855568c7cadb1fa8",
    ('summ-blobs-c2', 'bsm-saturate', 5, 0.0): "0df76c8d2c988d090036876ca8b82371df9a146535165178382203f917059376",
    ('summ-blobs-c2', 'bsm-saturate', 5, 0.5): "b1f8041a74e6b7454c5d6c95bf5444229accb7ffa52f35d6344e665f1a62ffba",
    ('summ-blobs-c2', 'bsm-saturate', 10, 0.0): "001f77fcdece9dd519d91fc6905721c330685b0ffae8f3dd16e28742f010fa1d",
    ('summ-blobs-c2', 'bsm-saturate', 10, 0.5): "171714bdf26866c51610e47244942b4754642e44516d8d56ebd5dd2fca7c0592",
    ('summ-blobs-c2', 'bsm-saturate', 10, 0.9): "833ca95c32de2a3b604552847550a1dfec97bce4764368d52128c54fe6d650da",
    ('summ-blobs-c2', 'bsm-saturate-ls', 3, 0.0): "84d5d018349c7bb8365acb7fef956fabff67949c9851bade0f28c2c3b2ffcd93",
    ('summ-blobs-c2', 'bsm-saturate-ls', 3, 0.5): "77853eaddf4cde109bccf67143ad3a14aba1312f56bf42eb8724ca81ad2abad8",
    ('summ-blobs-c2', 'bsm-saturate-ls', 3, 0.9): "b312dddee244946e4f374097c34e5fd07838952623adfd8571e1d9c426839b17",
    ('summ-blobs-c2', 'bsm-saturate-ls', 5, 0.0): "54183ab8f24a3302a123dd595feac09abea69cc0ea7190c3c4b6b1da9d0151de",
    ('summ-blobs-c2', 'bsm-saturate-ls', 5, 0.5): "25687926079f9f5a23e07f2801c77cc2055ed9290b10f2e1de89e05ba2274d46",
    ('summ-blobs-c2', 'bsm-saturate-ls', 10, 0.0): "1ce85a44c3e7e05f61d3ba884400a7fc7dcff489307dbff8bbb0298b29187750",
    ('summ-blobs-c2', 'bsm-saturate-ls', 10, 0.5): "dba3ec51ce4f76fed71c44a021a02273d67f25446729899993ec763545946eb7",
    ('summ-blobs-c2', 'bsm-saturate-ls', 10, 0.9): "d4ec3b5d1e96733bb76d50d3071416a486f2fd62638c880be605b04a222ae5a4",
    ('summ-blobs-c2', 'bsm-tsgreedy', 3, 0.0): "d7677832ad11b03f43cde930eafc8f7bddeb92d90ad5e37ee52270b980899f48",
    ('summ-blobs-c2', 'bsm-tsgreedy', 3, 0.5): "4cc4d539208919e0626dab7b8debe600958c5ab8b2ca46aff94b5683aba3913f",
    ('summ-blobs-c2', 'bsm-tsgreedy', 3, 0.9): "7ced0c0cc45e33d0441ee34ce7fd9f3fc64b2254bb5ccde18a5578dec7120309",
    ('summ-blobs-c2', 'bsm-tsgreedy', 5, 0.0): "dc437612a69926b03ef24c39c2fe69486a6ba849b7eb466d4fca8225b9bdd72d",
    ('summ-blobs-c2', 'bsm-tsgreedy', 5, 0.5): "2f3362862de6e13d58190cbb28815242838d87f8660d280398b5e700a845d8a7",
    ('summ-blobs-c2', 'bsm-tsgreedy', 10, 0.0): "de6753a2f09166212e955549444eb91fe6e4e9598ee2a4fe82b37f5c9432b54d",
    ('summ-blobs-c2', 'bsm-tsgreedy', 10, 0.5): "2ee262b4d0b5bf78fbb2ef1861bb767025235450b0dd27e3465b0483f1a60cbc",
    ('summ-blobs-c2', 'bsm-tsgreedy', 10, 0.9): "05f0b8a9f002e9e39578b0e7af2fe5c3a574a354593420b065e7b98676d765ee",
    ('summ-blobs-c2', 'mwu', 3, 0.0): "f790cf0513c84b2f8c97477e2fa3c6f4d29855be1505391764b0a70bc15cad6c",
    ('summ-blobs-c2', 'mwu', 3, 0.5): "f790cf0513c84b2f8c97477e2fa3c6f4d29855be1505391764b0a70bc15cad6c",
    ('summ-blobs-c2', 'mwu', 3, 0.9): "f790cf0513c84b2f8c97477e2fa3c6f4d29855be1505391764b0a70bc15cad6c",
    ('summ-blobs-c2', 'mwu', 5, 0.0): "454eacceda83a2a5aa18a75dfc5741700e7583120d38209c89017ac2dfe3319d",
    ('summ-blobs-c2', 'mwu', 5, 0.5): "454eacceda83a2a5aa18a75dfc5741700e7583120d38209c89017ac2dfe3319d",
    ('summ-blobs-c2', 'mwu', 10, 0.0): "c6ec7057c8f11acd00be7cd7ef809d8a003580e302ca8f271ddce65d79ba05a6",
    ('summ-blobs-c2', 'mwu', 10, 0.5): "c6ec7057c8f11acd00be7cd7ef809d8a003580e302ca8f271ddce65d79ba05a6",
    ('summ-blobs-c2', 'mwu', 10, 0.9): "c6ec7057c8f11acd00be7cd7ef809d8a003580e302ca8f271ddce65d79ba05a6",
    ('summ-blobs-c2', 'saturate', 3, 0.0): "4ed85cefa9496c0202192b1f1623e5fc19a7e8590fc5530b0840b1d53ec51346",
    ('summ-blobs-c2', 'saturate', 3, 0.5): "4ed85cefa9496c0202192b1f1623e5fc19a7e8590fc5530b0840b1d53ec51346",
    ('summ-blobs-c2', 'saturate', 3, 0.9): "4ed85cefa9496c0202192b1f1623e5fc19a7e8590fc5530b0840b1d53ec51346",
    ('summ-blobs-c2', 'saturate', 5, 0.0): "f026fa540dad4dcbef08e63e48b7bd42529f7d3698db11caae063a5a3f298550",
    ('summ-blobs-c2', 'saturate', 5, 0.5): "f026fa540dad4dcbef08e63e48b7bd42529f7d3698db11caae063a5a3f298550",
    ('summ-blobs-c2', 'saturate', 10, 0.0): "eff127e07acb6ed1a0611d3cc8bf0f51d5ffaa0b1397474c2902e1c13aa2352f",
    ('summ-blobs-c2', 'saturate', 10, 0.5): "eff127e07acb6ed1a0611d3cc8bf0f51d5ffaa0b1397474c2902e1c13aa2352f",
    ('summ-blobs-c2', 'saturate', 10, 0.9): "eff127e07acb6ed1a0611d3cc8bf0f51d5ffaa0b1397474c2902e1c13aa2352f",
    ('summ-blobs-c2', 'smsc', 3, 0.0): "e7b46b0af731572809a2d5efe9ee271542217e1239d9bac6cafdc4e76c406431",
    ('summ-blobs-c2', 'smsc', 3, 0.5): "e7b46b0af731572809a2d5efe9ee271542217e1239d9bac6cafdc4e76c406431",
    ('summ-blobs-c2', 'smsc', 3, 0.9): "e7b46b0af731572809a2d5efe9ee271542217e1239d9bac6cafdc4e76c406431",
    ('summ-blobs-c2', 'smsc', 5, 0.0): "c97b8d4b0fbe21da12424f5cd4dc47ebb92b88eec15130f7b226df36bff0e381",
    ('summ-blobs-c2', 'smsc', 5, 0.5): "c97b8d4b0fbe21da12424f5cd4dc47ebb92b88eec15130f7b226df36bff0e381",
    ('summ-blobs-c2', 'smsc', 10, 0.0): "d1573090082b29358ae34afc4afd42d6a77a54dc49f1410190b5d5f4d6282ca7",
    ('summ-blobs-c2', 'smsc', 10, 0.5): "d1573090082b29358ae34afc4afd42d6a77a54dc49f1410190b5d5f4d6282ca7",
    ('summ-blobs-c2', 'smsc', 10, 0.9): "d1573090082b29358ae34afc4afd42d6a77a54dc49f1410190b5d5f4d6282ca7",
}


@lru_cache(maxsize=None)
def _objective(name: str):
    data = load_dataset(name, seed=0)
    if data.kind == "influence":
        from repro.problems.influence import InfluenceObjective

        return InfluenceObjective.from_graph(
            data.graph, INFLUENCE_SAMPLES, seed=0
        )
    return data.objective


def _token(value) -> str:
    if isinstance(value, float):
        return float(value).hex()
    return repr(value)


def fingerprint(result) -> str:
    digest = hashlib.sha256()
    digest.update(repr(tuple(int(v) for v in result.solution)).encode())
    for value in result.group_values:
        digest.update(float(value).hex().encode())
    digest.update(f"{result.oracle_calls}|{bool(result.feasible)}".encode())
    for key in sorted(result.extra):
        value = result.extra[key]
        if value is None or isinstance(value, (bool, int, float, str)):
            digest.update(f"|{key}={_token(value)}".encode())
    return digest.hexdigest()


def _run(name: str, algorithm: str, k: int, tau: float) -> str:
    problem = BSMProblem(_objective(name), k=k, tau=tau)
    return fingerprint(problem.solve(algorithm))


def _cases(ks, taus):
    return [
        (name, algorithm, k, tau)
        for name in DATASETS
        for algorithm in ALGORITHMS
        for k in ks
        for tau in taus
    ]


@pytest.mark.parametrize("name,algorithm,k,tau", _cases((5,), (0.0, 0.5)))
def test_solver_output_is_frozen(name, algorithm, k, tau):
    assert _run(name, algorithm, k, tau) == FINGERPRINTS[name, algorithm, k, tau]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name,algorithm,k,tau", _cases((3, 10), (0.0, 0.5, 0.9))
)
def test_solver_output_is_frozen_grid(name, algorithm, k, tau):
    assert _run(name, algorithm, k, tau) == FINGERPRINTS[name, algorithm, k, tau]


@pytest.mark.parametrize("tol", [0.0, 1.0, 1.5])
def test_saturate_rejects_bisection_tol_outside_open_unit_interval(tol):
    with pytest.raises(ValueError, match="bisection_tol"):
        saturate(_objective("rand-fl-c2"), 3, bisection_tol=tol)
