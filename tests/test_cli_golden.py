"""Pinned bytes of every graph and natex command on the files in models/.

Each row of GOLDEN is one `credal` command on one model file under one
engine: the exit code, then the sha256 of stdout and of stderr with the
`time_ms_*` lines dropped, because they vary from run to run. The rows
cover vertices, fan, graph and natex on every file in models/ under every
engine, including the exit-2 refusals. The chains engine is left out on
the two ten-outcome files, where its n! chain fan is refused before any
work (tests/test_cli.py covers that). Natex reads models/gamble_n3.json,
and on the ten-outcome files the fixed gamble GAMBLE_N10. Model paths are
given relative to the repository root, as the report echoes them.

Each row of OPTION_GOLDEN adds one option to a command under the auto
engine (check and bounds take no engine, "-"): --verify and --decimal,
a written file ("--out=FILE", "--dot=FILE", whose bytes are pinned in the
last column) or an empty path ("--out=", "--dot="), which means no file.
check and bounds --model run bare ("-") on every file in models/.
"""

import hashlib
import json
from pathlib import Path

import pytest

from credalfans.cli import main

ROOT = Path(__file__).resolve().parent.parent
N10 = {"pri_n10_uniform_max.json", "pri_n10_uniform_min.json"}
GAMBLE_N10 = {f"x{k}": f"{(3 * k) % 7 - 2}/{1 + k % 3}" for k in range(1, 11)}

# command, model file, engine, exit code, stdout digest, stderr digest
GOLDEN = """
vertices gamble_n3.json                  auto   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
vertices gamble_n3.json                  walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
vertices gamble_n3.json                  chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
vertices gamble_n3.json                  pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
vertices gamble_n3.json                  oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
vertices lowprob_n3_nonsupermodular.json auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
vertices lowprob_n3_nonsupermodular.json walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
vertices lowprob_n3_nonsupermodular.json chains 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e644e27915e8d1c3d56a1349d682d6bc48a27180308d6295bace981ea3950406
vertices lowprob_n3_nonsupermodular.json pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
vertices lowprob_n3_nonsupermodular.json oracle 0 4fb5142875533ffe8bfe108dc80e2c46da0763ab720a52cab78328c3325ad9aa 20ec7751beb25893d1afff41d90046df5f1bb03bb51a661887f82423615bd033
vertices lowprob_n3_supermodular.json    auto   0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 ad5523adb16ec394ca61fd03878a26eb8f75253c113c290d525566acc18b010b
vertices lowprob_n3_supermodular.json    walk   0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 87872b431060a63dd7788deed48239c7d02553adcc24fedd970c5b799ddfc7af
vertices lowprob_n3_supermodular.json    chains 0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 ad5523adb16ec394ca61fd03878a26eb8f75253c113c290d525566acc18b010b
vertices lowprob_n3_supermodular.json    pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
vertices lowprob_n3_supermodular.json    oracle 0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 440584fa17c7612f3e4bbe773b78d8919d8a52435a88a29b20acf5771d631844
vertices prevision_n3_general.json       auto   0 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0 0d07393e63119c176d57305ad1b718d7bc6caea585b00eb5b3db1c6482757ddb
vertices prevision_n3_general.json       walk   0 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0 0d07393e63119c176d57305ad1b718d7bc6caea585b00eb5b3db1c6482757ddb
vertices prevision_n3_general.json       chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
vertices prevision_n3_general.json       pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
vertices prevision_n3_general.json       oracle 0 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0 2c8c0cebb1b05ecf57f97c69fac91599ea8cd36089391c2e48e45b175d66953f
vertices pri_n10_uniform_max.json        auto   0 3b2839f99b6858ea28aa58c7bb869800570229f80c07944b51cecc190ae2799f 581531159e3b325e84ae94829e73d60a99458658cbac4894649166d7649d99a2
vertices pri_n10_uniform_max.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
vertices pri_n10_uniform_max.json        pri    0 3b2839f99b6858ea28aa58c7bb869800570229f80c07944b51cecc190ae2799f 581531159e3b325e84ae94829e73d60a99458658cbac4894649166d7649d99a2
vertices pri_n10_uniform_max.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb
vertices pri_n10_uniform_min.json        auto   0 4575f81b2ca64e563d77c2f7d4e5d6b4138ae87e9a66c940ad2fed61d7f6849a 170dd6d109d3a7626b0540f0387635fb9a10ac3a6c83d1e5fe5aaacb8f00406f
vertices pri_n10_uniform_min.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
vertices pri_n10_uniform_min.json        pri    0 4575f81b2ca64e563d77c2f7d4e5d6b4138ae87e9a66c940ad2fed61d7f6849a 170dd6d109d3a7626b0540f0387635fb9a10ac3a6c83d1e5fe5aaacb8f00406f
vertices pri_n10_uniform_min.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb
vertices pri_n3.json                     auto   0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 042242f7744d2f5d09ab3c942dc22157e51021d5469eced8f8d7f42d55311779
vertices pri_n3.json                     walk   0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 3cc3f1c6f4dc97a9d6a1e493d2852a14ef74fc448067d0b35a4be83134e2233d
vertices pri_n3.json                     chains 0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 a116b4b28d15e1e8e6244ca7a7ee8a72e9685204c12e6e9c371f03c38eccc34a
vertices pri_n3.json                     pri    0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 042242f7744d2f5d09ab3c942dc22157e51021d5469eced8f8d7f42d55311779
vertices pri_n3.json                     oracle 0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 63715da0535072c0112401447c41ac922232d8fa620c9128733ed88de24b3a6c
vertices pri_n3_unreachable.json         auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
vertices pri_n3_unreachable.json         walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 72f58308ad7d03aca257604ee4dbe61d8737c70176632340328aec3531efbb30
vertices pri_n3_unreachable.json         chains 0 ec57934bd49908cec55b429efc3c5b1d7083f4ac643edd69db8a6ea605be28ea 39f67773311b0e8a7d951b5c151a5af54ed3416cd96b4ab7774ac5e750da8574
vertices pri_n3_unreachable.json         pri    1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
vertices pri_n3_unreachable.json         oracle 0 ec57934bd49908cec55b429efc3c5b1d7083f4ac643edd69db8a6ea605be28ea 867504217a9151dcad8a8c9cbf03b885a56adf9122e9802ac74ced92400edf35
vertices vacuous_n3.json                 auto   0 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39 1893635d63077aa4c67beb17aa25627696b5b97e9345333b75ab3b5a08896fce
vertices vacuous_n3.json                 walk   0 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39 1893635d63077aa4c67beb17aa25627696b5b97e9345333b75ab3b5a08896fce
vertices vacuous_n3.json                 chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
vertices vacuous_n3.json                 pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
vertices vacuous_n3.json                 oracle 0 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39 d0e4b16cab2e27c4a9942b525f25495f11458656931d670cd63c4307620faa02
fan      gamble_n3.json                  auto   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
fan      gamble_n3.json                  walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
fan      gamble_n3.json                  chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
fan      gamble_n3.json                  pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
fan      gamble_n3.json                  oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
fan      lowprob_n3_nonsupermodular.json auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
fan      lowprob_n3_nonsupermodular.json walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
fan      lowprob_n3_nonsupermodular.json chains 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e644e27915e8d1c3d56a1349d682d6bc48a27180308d6295bace981ea3950406
fan      lowprob_n3_nonsupermodular.json pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
fan      lowprob_n3_nonsupermodular.json oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      lowprob_n3_supermodular.json    auto   0 0b60c5b6b26cfb8df68c2efe78b0aaf78dc9751ebf600e41b37c5d45b2dc122a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      lowprob_n3_supermodular.json    walk   0 cd951cc4093c47a91ef67178ce71db90de5a493e87ff85c797a7e1b0727f9ad5 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      lowprob_n3_supermodular.json    chains 0 0b60c5b6b26cfb8df68c2efe78b0aaf78dc9751ebf600e41b37c5d45b2dc122a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      lowprob_n3_supermodular.json    pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
fan      lowprob_n3_supermodular.json    oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      prevision_n3_general.json       auto   0 8de25beb4a4104f8fc8a5c3b2abf624a8305237693b6fff12a3682a2515942c7 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      prevision_n3_general.json       walk   0 8de25beb4a4104f8fc8a5c3b2abf624a8305237693b6fff12a3682a2515942c7 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      prevision_n3_general.json       chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
fan      prevision_n3_general.json       pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
fan      prevision_n3_general.json       oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      pri_n10_uniform_max.json        auto   0 e59215d2f42182927b5be3e5c68ece6086b96b69c4ad4d44bd014d4e0c1a4e6e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n10_uniform_max.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
fan      pri_n10_uniform_max.json        pri    0 e59215d2f42182927b5be3e5c68ece6086b96b69c4ad4d44bd014d4e0c1a4e6e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n10_uniform_max.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      pri_n10_uniform_min.json        auto   0 cc753d49713763e424e3d18b6f303b44f13bdf1912592a6a2c84d64bf2b7ea8d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n10_uniform_min.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
fan      pri_n10_uniform_min.json        pri    0 cc753d49713763e424e3d18b6f303b44f13bdf1912592a6a2c84d64bf2b7ea8d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n10_uniform_min.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      pri_n3.json                     auto   0 f05f2dd730265f1c09052d842a79864502596070cb10926d5a02bf90570f98a3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n3.json                     walk   0 2b6e9e9a557f01b28b61787d6e01cc223c8779fc4e8321d022415d1e1a735b9e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n3.json                     chains 0 0bd310b59f514c71f24410d64d8b50b5926ba4d65d36c9fd896a1f5fb987839b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n3.json                     pri    0 f05f2dd730265f1c09052d842a79864502596070cb10926d5a02bf90570f98a3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n3.json                     oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      pri_n3_unreachable.json         auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
fan      pri_n3_unreachable.json         walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 72f58308ad7d03aca257604ee4dbe61d8737c70176632340328aec3531efbb30
fan      pri_n3_unreachable.json         chains 0 04a8bd15566a4f880ca11e6eeb0da4608f7f13d0d3d9f3e3b6b19b19d97c15ca e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      pri_n3_unreachable.json         pri    1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
fan      pri_n3_unreachable.json         oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
fan      vacuous_n3.json                 auto   0 77b1da9a8c2c2b83e71cce79ee5764b5374c16f72964963fc7e10be2cbb2ee31 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      vacuous_n3.json                 walk   0 77b1da9a8c2c2b83e71cce79ee5764b5374c16f72964963fc7e10be2cbb2ee31 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      vacuous_n3.json                 chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
fan      vacuous_n3.json                 pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
fan      vacuous_n3.json                 oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    gamble_n3.json                  auto   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
graph    gamble_n3.json                  walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
graph    gamble_n3.json                  chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
graph    gamble_n3.json                  pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
graph    gamble_n3.json                  oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
graph    lowprob_n3_nonsupermodular.json auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
graph    lowprob_n3_nonsupermodular.json walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab
graph    lowprob_n3_nonsupermodular.json chains 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e644e27915e8d1c3d56a1349d682d6bc48a27180308d6295bace981ea3950406
graph    lowprob_n3_nonsupermodular.json pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
graph    lowprob_n3_nonsupermodular.json oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    lowprob_n3_supermodular.json    auto   0 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0 3ebbc0288f9b2339580496f6eaaf8b62e8fb0787b944635cb79a587678768213
graph    lowprob_n3_supermodular.json    walk   0 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0 0526a8e882f8a7397372b1637bd97a3275e4d9ab9c02fc8fb46b6d78aefc7f11
graph    lowprob_n3_supermodular.json    chains 0 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0 3ebbc0288f9b2339580496f6eaaf8b62e8fb0787b944635cb79a587678768213
graph    lowprob_n3_supermodular.json    pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
graph    lowprob_n3_supermodular.json    oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    prevision_n3_general.json       auto   0 f9f5b242ede4f158fb3e53f23da3c7f08f9e22b818da52d3dbd7d5d91aea0fe9 d846d9684a5937fb485dcef0f0f42708cf377cf2ae9194d69d4c54c730b13a52
graph    prevision_n3_general.json       walk   0 f9f5b242ede4f158fb3e53f23da3c7f08f9e22b818da52d3dbd7d5d91aea0fe9 d846d9684a5937fb485dcef0f0f42708cf377cf2ae9194d69d4c54c730b13a52
graph    prevision_n3_general.json       chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
graph    prevision_n3_general.json       pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
graph    prevision_n3_general.json       oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    pri_n10_uniform_max.json        auto   0 a81c0286f25c4528fcf82c06dfe198f2974690e3cbc83a8bd44370c923546813 d7d3e63d06f393b0be70ddf3b5fda95ebfda053559dfec8e1853dd06ca1c3d02
graph    pri_n10_uniform_max.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
graph    pri_n10_uniform_max.json        pri    0 a81c0286f25c4528fcf82c06dfe198f2974690e3cbc83a8bd44370c923546813 d7d3e63d06f393b0be70ddf3b5fda95ebfda053559dfec8e1853dd06ca1c3d02
graph    pri_n10_uniform_max.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    pri_n10_uniform_min.json        auto   0 6a60f92680481cf1fde0f9f4d3e2e07a19c617cd0ba0cab14ca760a571179110 8dbbbaf3f1e42a95e22c0a34ec85d7f8a4df7905e10666a218d5ab323ef926fc
graph    pri_n10_uniform_min.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
graph    pri_n10_uniform_min.json        pri    0 6a60f92680481cf1fde0f9f4d3e2e07a19c617cd0ba0cab14ca760a571179110 8dbbbaf3f1e42a95e22c0a34ec85d7f8a4df7905e10666a218d5ab323ef926fc
graph    pri_n10_uniform_min.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    pri_n3.json                     auto   0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 3592587829d3b6a9fb863bddb0e334728c8a656b7d597de61d741da455b09d83
graph    pri_n3.json                     walk   0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 9a9ab2ff1ee2b84d632c78d5e5f1de27223e12fe563bf013630566766d476d4d
graph    pri_n3.json                     chains 0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 4f8df77a6fb6b3f34161335d99dbb8b7f607b2950ae9bcbe54cbc98db0664962
graph    pri_n3.json                     pri    0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 3592587829d3b6a9fb863bddb0e334728c8a656b7d597de61d741da455b09d83
graph    pri_n3.json                     oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    pri_n3_unreachable.json         auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
graph    pri_n3_unreachable.json         walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 72f58308ad7d03aca257604ee4dbe61d8737c70176632340328aec3531efbb30
graph    pri_n3_unreachable.json         chains 0 311595bc2493296133b5c3de7423c551c54a537ec8d93daf5989f566a145dbb7 6e7c70c1b6d1a6396bd7f65271753c8c5faebb7defb81d87bbc462cd27898f81
graph    pri_n3_unreachable.json         pri    1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f
graph    pri_n3_unreachable.json         oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
graph    vacuous_n3.json                 auto   0 947808552f3b312f5a922c1c1b46e03ef964afa39f5b24cae9f48b8fc98089ed 61fc2ccbe1377be00ebf486e366421ae62507f77938cac291f3fb8a0510faae6
graph    vacuous_n3.json                 walk   0 947808552f3b312f5a922c1c1b46e03ef964afa39f5b24cae9f48b8fc98089ed 61fc2ccbe1377be00ebf486e366421ae62507f77938cac291f3fb8a0510faae6
graph    vacuous_n3.json                 chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
graph    vacuous_n3.json                 pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
graph    vacuous_n3.json                 oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 de79b920d35a3b082d51ee85382b8b2d525de3c3233cf7924fc5a4cac9879ba8
natex    gamble_n3.json                  auto   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
natex    gamble_n3.json                  walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
natex    gamble_n3.json                  chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
natex    gamble_n3.json                  pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
natex    gamble_n3.json                  oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7
natex    lowprob_n3_nonsupermodular.json auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f45d3251215d0e55bd750be4e9cf6438fadf041b1d979549bb8ec4bd3846a76b
natex    lowprob_n3_nonsupermodular.json walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f45d3251215d0e55bd750be4e9cf6438fadf041b1d979549bb8ec4bd3846a76b
natex    lowprob_n3_nonsupermodular.json chains 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e644e27915e8d1c3d56a1349d682d6bc48a27180308d6295bace981ea3950406
natex    lowprob_n3_nonsupermodular.json pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
natex    lowprob_n3_nonsupermodular.json oracle 0 d4a070e02dfd7a269f389957e5d7e111f917168816e9f96a33396ae48015e923 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    lowprob_n3_supermodular.json    auto   0 20446cd54e63c8fe06883752d2eb8cbb9e2cbd4d8376c150fbae9a89d25512d3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    lowprob_n3_supermodular.json    walk   0 c93c83e567876da279c7bbda31c15acef9b2cac99a6ecd5ccb4b164326c18d49 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    lowprob_n3_supermodular.json    chains 0 20446cd54e63c8fe06883752d2eb8cbb9e2cbd4d8376c150fbae9a89d25512d3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    lowprob_n3_supermodular.json    pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e1b5426c1551e9aa73b2b19ab7925a6f6e7fe32fa05cd6009080aeca6c33507e
natex    lowprob_n3_supermodular.json    oracle 0 d3966aad65c5f7656a8d10d97fbff49a0d56adbb289b93c30dacf34e975ceaac e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    prevision_n3_general.json       auto   0 02d0c0aeadff65857c648e3a571feb6c1b7b3e2ad154f80374cb19e8e4fe522a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    prevision_n3_general.json       walk   0 02d0c0aeadff65857c648e3a571feb6c1b7b3e2ad154f80374cb19e8e4fe522a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    prevision_n3_general.json       chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
natex    prevision_n3_general.json       pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
natex    prevision_n3_general.json       oracle 0 1c053e643ac2980e8ba2a2ab802020a235cd93ad0a20dd90bad4a7b7cbf5f0f2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n10_uniform_max.json        auto   0 a6966b667b778211c3e462fc380d8234618691d8bc2a44236e439fa7d3465b6f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n10_uniform_max.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
natex    pri_n10_uniform_max.json        pri    0 a6966b667b778211c3e462fc380d8234618691d8bc2a44236e439fa7d3465b6f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n10_uniform_max.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb
natex    pri_n10_uniform_min.json        auto   0 f4cf0e347bbbc59ebec09fddab1ce840edb0082c8710bb00f99bab8d691d316f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n10_uniform_min.json        walk   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bac36d6ed59c245f8975010839aafa0437b069fb6eb08b0594c532313fb49d10
natex    pri_n10_uniform_min.json        pri    0 f4cf0e347bbbc59ebec09fddab1ce840edb0082c8710bb00f99bab8d691d316f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n10_uniform_min.json        oracle 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb
natex    pri_n3.json                     auto   0 63538f60e7eb51ba56772b594c0baed7542ce46d976ad778166dd77d0c2fc651 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3.json                     walk   0 3712a29d01b02e328ad43b6feb3e8cd0eba9b75d4b3d72e4159ab6a1814ad508 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3.json                     chains 0 49671fee33773d47b68576c4f5484513305c6a90338b6bb4a8a677de6aa45293 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3.json                     pri    0 63538f60e7eb51ba56772b594c0baed7542ce46d976ad778166dd77d0c2fc651 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3.json                     oracle 0 865c7b61af24e818dfafba5ecd8d59f0b2b460753a19939685f58d2f338d26a1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3_unreachable.json         auto   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 66ed36bb728803ac2e5984a9579adbfad65e610fe1fdeb604979a0b86162139e
natex    pri_n3_unreachable.json         walk   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f45d3251215d0e55bd750be4e9cf6438fadf041b1d979549bb8ec4bd3846a76b
natex    pri_n3_unreachable.json         chains 0 c83a38e28caaeaba27713f892cc9d22271c1447e3430fe130634926f19857bd3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    pri_n3_unreachable.json         pri    1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 66ed36bb728803ac2e5984a9579adbfad65e610fe1fdeb604979a0b86162139e
natex    pri_n3_unreachable.json         oracle 0 c0a422d4f3a1b6f8c41b79f3badef0e454e683b71ba9fe8ade40d61ed82d66c9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    vacuous_n3.json                 auto   0 7914378d296b1bec6c2e597abc960036a7e46de796687f2816ea90bd3947b4bf e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    vacuous_n3.json                 walk   0 7914378d296b1bec6c2e597abc960036a7e46de796687f2816ea90bd3947b4bf e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
natex    vacuous_n3.json                 chains 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e5865014b7ade4c4829072b7641ffd2e896e9f72ab5e580b7208421859694e40
natex    vacuous_n3.json                 pri    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 82dccef118c8d51561606c8c2e922e1b65c87cbfc356522828113820e821b928
natex    vacuous_n3.json                 oracle 0 5d731143e684a15ef31236cfb481a9e96476d279b3a36b998f7b1bfee3622ce2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
"""


def _rows():
    for line in GOLDEN.strip().splitlines():
        command, name, engine, code, out_digest, err_digest = line.split()
        # the id names the stdout digest, as it did when only stdout was pinned
        yield pytest.param(command, name, engine, int(code), out_digest, err_digest,
                           id=f"{command}-{name}-{engine}-{out_digest}")


# command, model file, engine, option, exit code, stdout digest, stderr digest,
# digest of the written file ("-" when none)
OPTION_GOLDEN = """
check    gamble_n3.json                  -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
check    lowprob_n3_nonsupermodular.json -    -          1 d8486b03636e9c725293e1957ca42b06bcf3ddfd1dcefbe447bc1736855304e8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    lowprob_n3_supermodular.json    -    -          0 1e29f1306d26eb2512e58523c7b56473ff369235fc6c248d06619f93a409715c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    prevision_n3_general.json       -    -          0 533a491b29f48cb61151e80409807fa791f9a5f1b192448276544e999ac858c5 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    pri_n10_uniform_max.json        -    -          0 0ab56c279647d982a70784e0df8bfe7adf1c8c5a37806c9d4b7f59b0e4a8b67d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    pri_n10_uniform_min.json        -    -          0 c3f614431dd0dbc29a1d5e739f3412b14da100939a8bb7bed013a313df91190f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    pri_n3.json                     -    -          0 681216290ce865f62b0bb31fc878c02e1b2c63af17117c00b93ec5cd4167da29 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    pri_n3_unreachable.json         -    -          1 ba893559ea36c3a54749c33ea6cde8159c8f590d37d1822156eae1d85fba5327 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
check    vacuous_n3.json                 -    -          0 18df8e4130a6ea8025216c14ad20677e735b63c62164d2e43029cef00a0029d0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
bounds   gamble_n3.json                  -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
bounds   lowprob_n3_nonsupermodular.json -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8a8e2fe93106442683a8e0fa1b79301b9fcf8dc52f84a08a7a7d8193b598b654 -
bounds   lowprob_n3_supermodular.json    -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8a8e2fe93106442683a8e0fa1b79301b9fcf8dc52f84a08a7a7d8193b598b654 -
bounds   prevision_n3_general.json       -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8a8e2fe93106442683a8e0fa1b79301b9fcf8dc52f84a08a7a7d8193b598b654 -
bounds   pri_n10_uniform_max.json        -    -          0 fc32fa39cfc22cb0e52f63495eefd61dc0e018b80f4707e6330a6af3f2b60629 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
bounds   pri_n10_uniform_min.json        -    -          0 3391bafa1403911a044f2eb9502f4adb7df32487dd2a3b349a2d83b73fd6cb75 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
bounds   pri_n3.json                     -    -          0 e46fa42a0d8de6ec5b065d64e04a2d5c53f0b8d33f2750311d663b6797b107f3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
bounds   pri_n3_unreachable.json         -    -          0 eb6d4ca0a30138377731eddf6f298eea1f3a15aa1638ac7684fb435bb81ba74e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
bounds   vacuous_n3.json                 -    -          2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 8a8e2fe93106442683a8e0fa1b79301b9fcf8dc52f84a08a7a7d8193b598b654 -
vertices gamble_n3.json                  auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
vertices lowprob_n3_nonsupermodular.json auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
vertices lowprob_n3_supermodular.json    auto --verify   0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 48e587253cc76fb6494f22b1763a1f1946b1669aeb957b649c52daae131978d0 -
vertices prevision_n3_general.json       auto --verify   0 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0 bcdbfcf6045e5c516a995741ac2771262f38196bcca0b30ff29cff0cde15526f -
vertices pri_n10_uniform_max.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
vertices pri_n10_uniform_min.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
vertices pri_n3.json                     auto --verify   0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 01aafb652d85c5b5d502d8881d126ff4b9681acf1f4c4cd9af482c45183be1c0 -
vertices pri_n3_unreachable.json         auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
vertices vacuous_n3.json                 auto --verify   0 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39 21df85a6beaac225eb1a455b260775efd96e8a810f00718095b2f290a436a504 -
vertices gamble_n3.json                  auto --decimal  2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
vertices lowprob_n3_nonsupermodular.json auto --decimal  1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
vertices lowprob_n3_supermodular.json    auto --decimal  0 63c94190138a3587f23e2af696f3f06e72f2aae2727936bebd8823aaf51995a1 0c8d22d8b80d7b7cebe727e03b08368ddb3923a9e710f226244b4ad9864df4c7 -
vertices prevision_n3_general.json       auto --decimal  0 2cf42ee02c751857539acaec0db5766c8613e79a56572c1a4f7b146af5e85fbc 47c7d4af94051f2692e59cc6b519e473b6dcbc135da1fc1451a8cc36fec972c9 -
vertices pri_n10_uniform_max.json        auto --decimal  0 07ef9bb2474ecf87339ebb2b309af3622f2e280089ab17f1abf48dafbdc134f2 4344861ec7ade5c7ebe456b5d5c66f39d21daad1fb932e51ff8bf1f3924294b0 -
vertices pri_n10_uniform_min.json        auto --decimal  0 8334b51e7e785c768ae532d8c058f63b515f539584ebbbc8bc67ad8333c16c93 6474904197b8f78369dafe133a6c217823ff4ed18fae68c6e31647fdead167b9 -
vertices pri_n3.json                     auto --decimal  0 43c33fa9582cd6e4a467b59b31d303b4b0642e1574ab364d766a3c536ea6eb28 eabf2409a08ae89e61ce26e0630a0e299e48c8e503184bbff11ad023f1a45a30 -
vertices pri_n3_unreachable.json         auto --decimal  1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
vertices vacuous_n3.json                 auto --decimal  0 bdecd41f1e6d52efe5d60581f1b50d92f3341d502d520272c2929f1344ee70c3 e1169d6cec9205715fb7062fa831e2db84d9526e29884283a27835ae6558c57f -
vertices gamble_n3.json                  auto --out=FILE 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
vertices lowprob_n3_nonsupermodular.json auto --out=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
vertices lowprob_n3_supermodular.json    auto --out=FILE 0 ad5523adb16ec394ca61fd03878a26eb8f75253c113c290d525566acc18b010b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9
vertices prevision_n3_general.json       auto --out=FILE 0 0d07393e63119c176d57305ad1b718d7bc6caea585b00eb5b3db1c6482757ddb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0
vertices pri_n10_uniform_max.json        auto --out=FILE 0 581531159e3b325e84ae94829e73d60a99458658cbac4894649166d7649d99a2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 3b2839f99b6858ea28aa58c7bb869800570229f80c07944b51cecc190ae2799f
vertices pri_n10_uniform_min.json        auto --out=FILE 0 170dd6d109d3a7626b0540f0387635fb9a10ac3a6c83d1e5fe5aaacb8f00406f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 4575f81b2ca64e563d77c2f7d4e5d6b4138ae87e9a66c940ad2fed61d7f6849a
vertices pri_n3.json                     auto --out=FILE 0 042242f7744d2f5d09ab3c942dc22157e51021d5469eced8f8d7f42d55311779 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399
vertices pri_n3_unreachable.json         auto --out=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
vertices vacuous_n3.json                 auto --out=FILE 0 1893635d63077aa4c67beb17aa25627696b5b97e9345333b75ab3b5a08896fce e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39
vertices gamble_n3.json                  auto --out=     2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
vertices lowprob_n3_nonsupermodular.json auto --out=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
vertices lowprob_n3_supermodular.json    auto --out=     0 ac73061bff9feea294769dffcf452a60b7154a2d15d05eb9c00074f5b6bbefb9 ad5523adb16ec394ca61fd03878a26eb8f75253c113c290d525566acc18b010b -
vertices prevision_n3_general.json       auto --out=     0 ed42e3faa4644b2c35ea577a76700bec731292a478798e8e809d125bb286e9f0 0d07393e63119c176d57305ad1b718d7bc6caea585b00eb5b3db1c6482757ddb -
vertices pri_n10_uniform_max.json        auto --out=     0 3b2839f99b6858ea28aa58c7bb869800570229f80c07944b51cecc190ae2799f 581531159e3b325e84ae94829e73d60a99458658cbac4894649166d7649d99a2 -
vertices pri_n10_uniform_min.json        auto --out=     0 4575f81b2ca64e563d77c2f7d4e5d6b4138ae87e9a66c940ad2fed61d7f6849a 170dd6d109d3a7626b0540f0387635fb9a10ac3a6c83d1e5fe5aaacb8f00406f -
vertices pri_n3.json                     auto --out=     0 35f94549582863c4055ff1e6924acc4d946b97be5af4a2812c60f7dd7b529399 042242f7744d2f5d09ab3c942dc22157e51021d5469eced8f8d7f42d55311779 -
vertices pri_n3_unreachable.json         auto --out=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
vertices vacuous_n3.json                 auto --out=     0 d24c8bf18c44070f32582b252b85f3fe6a143fb69e912f2e331325e47fd7fc39 1893635d63077aa4c67beb17aa25627696b5b97e9345333b75ab3b5a08896fce -
fan      gamble_n3.json                  auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
fan      lowprob_n3_nonsupermodular.json auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
fan      lowprob_n3_supermodular.json    auto --verify   0 1f0d344044642cd0a020849b214cd932d075f97d509c481baeb1dbe27be7210a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      prevision_n3_general.json       auto --verify   0 4e43d5ea1ff7ffa2ab7e750f963d2db451b80f3d088f5b8afd5b97281ef650dd e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n10_uniform_max.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
fan      pri_n10_uniform_min.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
fan      pri_n3.json                     auto --verify   0 7e131d7a64408d24851dc769e96a09e26dd5e594aeb0460921fdc6656310e040 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n3_unreachable.json         auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
fan      vacuous_n3.json                 auto --verify   0 dc7010d7f51f829e44376fb072e3f6dc0b1b949de1390e846b4e7d2a1768c0e3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      gamble_n3.json                  auto --dot=FILE 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
fan      lowprob_n3_nonsupermodular.json auto --dot=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
fan      lowprob_n3_supermodular.json    auto --dot=FILE 0 c59335c0bb52e346b9989d3f7342e70bdbcd54ac85df408fa75a664350d67934 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 2b40b7492f424e63c9aed72bf5e6a3905726eb16cf0751354f8af6c3aaa2fa17
fan      prevision_n3_general.json       auto --dot=FILE 0 c5f68d3639efd01930c9f1bf4df24977660be7ccf4904ae6aee57d40b65ba3a1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c0d56ddd7e4887486ffc91abb77cec61387b2f048181b2306de9419cdae4abb8
fan      pri_n10_uniform_max.json        auto --dot=FILE 0 f11c329d2add83de7484729ef0bcc33051f6fd8ddd311eadd3f559e44822a7c3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 af30be49d077992da9b5f3c6d695f89f61a5380c86dc6f95fac8a192060ce2b1
fan      pri_n10_uniform_min.json        auto --dot=FILE 0 40888efff396c03dc472c7dcd20f1810005a792bcda6ee53a1267890101fc986 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 36fbcc7bfb78fdf1f543ae89df943235ab075c08b87e72e79ce2cb735aadd19e
fan      pri_n3.json                     auto --dot=FILE 0 421e572b445e882b3101b895feed638fb7c4a660e6db5b4a446a3d3b41c80cdc e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d2b3aa39d198817f2fcaaf8921a2ab0012fd195c808cf84d0ef0c55e87e8e7a5
fan      pri_n3_unreachable.json         auto --dot=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
fan      vacuous_n3.json                 auto --dot=FILE 0 936e91d9bf5494ef8bbcaa99afc1ac9eb60591d93b17d4e2365f9a87c2ffdc14 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9e77e716296a67636e307057fbd9ab9c8ff42bb68ea3b48b392729e8bb9687a3
fan      gamble_n3.json                  auto --dot=     2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
fan      lowprob_n3_nonsupermodular.json auto --dot=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
fan      lowprob_n3_supermodular.json    auto --dot=     0 0b60c5b6b26cfb8df68c2efe78b0aaf78dc9751ebf600e41b37c5d45b2dc122a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      prevision_n3_general.json       auto --dot=     0 8de25beb4a4104f8fc8a5c3b2abf624a8305237693b6fff12a3682a2515942c7 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n10_uniform_max.json        auto --dot=     0 e59215d2f42182927b5be3e5c68ece6086b96b69c4ad4d44bd014d4e0c1a4e6e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n10_uniform_min.json        auto --dot=     0 cc753d49713763e424e3d18b6f303b44f13bdf1912592a6a2c84d64bf2b7ea8d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n3.json                     auto --dot=     0 f05f2dd730265f1c09052d842a79864502596070cb10926d5a02bf90570f98a3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
fan      pri_n3_unreachable.json         auto --dot=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
fan      vacuous_n3.json                 auto --dot=     0 77b1da9a8c2c2b83e71cce79ee5764b5374c16f72964963fc7e10be2cbb2ee31 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
graph    gamble_n3.json                  auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
graph    lowprob_n3_nonsupermodular.json auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
graph    lowprob_n3_supermodular.json    auto --verify   0 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0 d1865a31969bf509f619eb82cb9ac0e131f4b1d3e56f06548b1ed84bb430ca8c -
graph    prevision_n3_general.json       auto --verify   0 f9f5b242ede4f158fb3e53f23da3c7f08f9e22b818da52d3dbd7d5d91aea0fe9 eb6dc2552be0a66915a2c6ba6218c9c937357c5a4e172d70f23ffed0acd6559c -
graph    pri_n10_uniform_max.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
graph    pri_n10_uniform_min.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
graph    pri_n3.json                     auto --verify   0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 265ac3bddb44c0c1b721b3c6e6790ae47ce8f2fd08df2494501719979ee3c6ac -
graph    pri_n3_unreachable.json         auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
graph    vacuous_n3.json                 auto --verify   0 947808552f3b312f5a922c1c1b46e03ef964afa39f5b24cae9f48b8fc98089ed ac1deabaefa66861145bd14fd7e24d11cc113e297488b54e59ef1e264ab421d0 -
graph    gamble_n3.json                  auto --out=FILE 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
graph    lowprob_n3_nonsupermodular.json auto --out=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
graph    lowprob_n3_supermodular.json    auto --out=FILE 0 ceea5643c29384bed623aa372f24f27ab2d53bc03573b7b9b1ed7026a6e13f43 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0
graph    prevision_n3_general.json       auto --out=FILE 0 132df4e265d8ada626a5d1f260728c52541f4f6e008b59c72b89923cd1494d03 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f9f5b242ede4f158fb3e53f23da3c7f08f9e22b818da52d3dbd7d5d91aea0fe9
graph    pri_n10_uniform_max.json        auto --out=FILE 0 7519bca88ce896be0dd25f8f219e68b860f1e889d7aeca98d2c14337b417d69e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 a81c0286f25c4528fcf82c06dfe198f2974690e3cbc83a8bd44370c923546813
graph    pri_n10_uniform_min.json        auto --out=FILE 0 c945377fe976a5500414a8b9b293694088f70076f1c662c66de7162a4bc1766c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6a60f92680481cf1fde0f9f4d3e2e07a19c617cd0ba0cab14ca760a571179110
graph    pri_n3.json                     auto --out=FILE 0 6b545f67ff13707289e7599b033a75693b40c8d1ded17078539cd26639c45a4e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d
graph    pri_n3_unreachable.json         auto --out=FILE 1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
graph    vacuous_n3.json                 auto --out=FILE 0 0dba257a4f60c9d1e93124ac67913b1a5a1c1936060cc2b9bf41ebf2706bec3a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 947808552f3b312f5a922c1c1b46e03ef964afa39f5b24cae9f48b8fc98089ed
graph    gamble_n3.json                  auto --out=     2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
graph    lowprob_n3_nonsupermodular.json auto --out=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 9a3036b4b3db845d2f3365b2e38546bbcd305522ecd52760608a3cbd7905baab -
graph    lowprob_n3_supermodular.json    auto --out=     0 e16d1d3f5c9b98da35bd57ff3fbceeb05429f23068ce06e7332d052b9f3dbcd0 3ebbc0288f9b2339580496f6eaaf8b62e8fb0787b944635cb79a587678768213 -
graph    prevision_n3_general.json       auto --out=     0 f9f5b242ede4f158fb3e53f23da3c7f08f9e22b818da52d3dbd7d5d91aea0fe9 d846d9684a5937fb485dcef0f0f42708cf377cf2ae9194d69d4c54c730b13a52 -
graph    pri_n10_uniform_max.json        auto --out=     0 a81c0286f25c4528fcf82c06dfe198f2974690e3cbc83a8bd44370c923546813 d7d3e63d06f393b0be70ddf3b5fda95ebfda053559dfec8e1853dd06ca1c3d02 -
graph    pri_n10_uniform_min.json        auto --out=     0 6a60f92680481cf1fde0f9f4d3e2e07a19c617cd0ba0cab14ca760a571179110 8dbbbaf3f1e42a95e22c0a34ec85d7f8a4df7905e10666a218d5ab323ef926fc -
graph    pri_n3.json                     auto --out=     0 c2f2a67ee4ba4ffb85ed10e6c8ade420e9abbfe7ff0b40d7e4c371709c88277d 3592587829d3b6a9fb863bddb0e334728c8a656b7d597de61d741da455b09d83 -
graph    pri_n3_unreachable.json         auto --out=     1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 25e789df089cdcea6c5120ec2f956a4339e4394e865b1037887078c952792e3f -
graph    vacuous_n3.json                 auto --out=     0 947808552f3b312f5a922c1c1b46e03ef964afa39f5b24cae9f48b8fc98089ed 61fc2ccbe1377be00ebf486e366421ae62507f77938cac291f3fb8a0510faae6 -
natex    gamble_n3.json                  auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
natex    lowprob_n3_nonsupermodular.json auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f45d3251215d0e55bd750be4e9cf6438fadf041b1d979549bb8ec4bd3846a76b -
natex    lowprob_n3_supermodular.json    auto --verify   0 55fbf7a77b8213eb59ce9102798ed76fe117a4d6fa365e1a2cb602ec271faebb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    prevision_n3_general.json       auto --verify   0 1c1d18d6cf69d099d9d9d1a1ecf2dc343c2f709ac7ac706f0917bf9ce20c94a6 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n10_uniform_max.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
natex    pri_n10_uniform_min.json        auto --verify   2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 288eb77d50071fa62db956fcb9f6a0c0a0620d162820e50230f99889941b0dcb -
natex    pri_n3.json                     auto --verify   0 d3c18a720f6e8e12fc6da49b1cb78936f3f5abe6b4c29602591ff29bc63b0f57 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n3_unreachable.json         auto --verify   1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 66ed36bb728803ac2e5984a9579adbfad65e610fe1fdeb604979a0b86162139e -
natex    vacuous_n3.json                 auto --verify   0 df8a5383e179eeb1f2380f70743425677b5d3d6907fa81196626befcb71db2a3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    gamble_n3.json                  auto --decimal  2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 1fc3acf41df60f9e032c33132be1a83cbf844b2ef0fbabaf59de931599ef92f7 -
natex    lowprob_n3_nonsupermodular.json auto --decimal  1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 f45d3251215d0e55bd750be4e9cf6438fadf041b1d979549bb8ec4bd3846a76b -
natex    lowprob_n3_supermodular.json    auto --decimal  0 6a56c1d26192fa5ac029be9da2f973407045340f43d3b9b21c0cc99b5b28be49 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    prevision_n3_general.json       auto --decimal  0 136c4d69b010d1364b1cf0c31bcfb902a8ea5c10e41d8a065df0e2fd75ccac0d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n10_uniform_max.json        auto --decimal  0 082fe7abebdff530fa23cfadc7985a67da20f3e24fab8c72e5e1ec2fed89e462 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n10_uniform_min.json        auto --decimal  0 1f5ed470a898bd9cdc857ae974e32514529cc5c72682e85f7330faa575a5a6d0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n3.json                     auto --decimal  0 0554d5d02a7fa85d1feabf888054a82247e720f5b7dea186b2f6ce312721b656 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
natex    pri_n3_unreachable.json         auto --decimal  1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 66ed36bb728803ac2e5984a9579adbfad65e610fe1fdeb604979a0b86162139e -
natex    vacuous_n3.json                 auto --decimal  0 441631a37393716f722f051cec3e4532e5c8f1b34dce3f33a7e9c0162abecfe9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 -
"""

OPTIONS = {"check": ("-",), "bounds": ("-",),
           "vertices": ("--verify", "--decimal", "--out=FILE", "--out="),
           "fan": ("--verify", "--dot=FILE", "--dot="),
           "graph": ("--verify", "--out=FILE", "--out="),
           "natex": ("--verify", "--decimal")}


# One model outside models/, written to a temporary file: a pri model whose
# second outcome name is a lone surrogate (JSON "\ud800"), which no UTF-8
# output can hold. The schema refuses it, exit 2, before any output.
SURROGATE_MODEL = {"type": "pri", "outcomes": ["a", "\ud800"],
                   "lower": {"a": "0", "\ud800": "0"}, "upper": {"a": "1", "\ud800": "1"}}
# command, engine, exit code, stdout digest, stderr digest
SURROGATE_GOLDEN = """
check    -    2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16b75fb9604edd4de80365d650b802f0a3177828bf3c384fa10bd7e5869032cf
vertices auto 2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 16b75fb9604edd4de80365d650b802f0a3177828bf3c384fa10bd7e5869032cf
"""


def _option_rows():
    for line in OPTION_GOLDEN.strip().splitlines():
        command, name, engine, option, code, *digests = line.split()
        yield pytest.param(command, name, engine, option, int(code), *digests,
                           id=f"{command}-{name}-{option}")


def _argv(command, name, engine, tmp_path):
    argv = [command, "--model", f"models/{name}"]
    if engine != "-":
        argv += ["--engine", engine]
    if command == "natex":
        gamble = Path("models/gamble_n3.json")
        if name in N10:
            gamble = tmp_path / "gamble_n10.json"
            gamble.write_text(json.dumps(GAMBLE_N10))
        argv += ["--gamble", str(gamble)]
    return argv


def _kept_digest(text):
    kept = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("time_ms_"))
    return hashlib.sha256(kept.encode()).hexdigest()


def test_matrix_is_complete():
    models = sorted(p.name for p in (ROOT / "models").glob("*.json"))
    cells = {tuple(p.values[:3]) for p in _rows()}
    expected = {(command, name, engine)
                for command in ("vertices", "fan", "graph", "natex")
                for name in models
                for engine in ("auto", "walk", "chains", "pri", "oracle")
                if not (name in N10 and engine == "chains")}
    assert cells == expected


@pytest.mark.parametrize("command,name,engine,code,out_digest,err_digest", _rows())
def test_stdout_bytes_pinned(capsys, monkeypatch, tmp_path, command, name, engine, code,
                             out_digest, err_digest):
    monkeypatch.chdir(ROOT)
    got = main(_argv(command, name, engine, tmp_path))
    captured = capsys.readouterr()
    assert got == code
    assert _kept_digest(captured.out) == out_digest
    assert _kept_digest(captured.err) == err_digest


def test_option_matrix_is_complete():
    models = sorted(p.name for p in (ROOT / "models").glob("*.json"))
    cells = {(p.values[0], p.values[1], p.values[3]) for p in _option_rows()}
    assert cells == {(command, name, option) for command, options in OPTIONS.items()
                     for name in models for option in options}


@pytest.mark.parametrize("command,name,engine,option,code,out_digest,err_digest,file_digest",
                         _option_rows())
def test_option_bytes_pinned(capsys, monkeypatch, tmp_path, command, name, engine, option, code,
                             out_digest, err_digest, file_digest):
    # the written file's path is echoed in the report; it digests as FILE
    monkeypatch.chdir(ROOT)
    argv = _argv(command, name, engine, tmp_path)
    written = tmp_path / "FILE"
    flag, eq, target = option.partition("=")
    if option != "-":
        argv += [flag, str(tmp_path / target) if target else ""] if eq else [flag]
    got = main(argv)
    captured = capsys.readouterr()
    assert got == code
    assert _kept_digest(captured.out.replace(str(written), "FILE")) == out_digest
    assert _kept_digest(captured.err.replace(str(written), "FILE")) == err_digest
    assert (hashlib.sha256(written.read_bytes()).hexdigest()
            if written.exists() else "-") == file_digest


@pytest.mark.parametrize("command,engine,code,out_digest,err_digest",
                         [pytest.param(*line.split(), id=line.split()[0])
                          for line in SURROGATE_GOLDEN.strip().splitlines()])
def test_surrogate_outcome_name_bytes_pinned(capsys, tmp_path, command, engine, code, out_digest,
                                             err_digest):
    model = tmp_path / "surrogate.json"
    model.write_text(json.dumps(SURROGATE_MODEL))
    argv = [command, "--model", str(model)] + (["--engine", engine] if engine != "-" else [])
    got = main(argv)
    captured = capsys.readouterr()
    assert got == int(code)
    assert _kept_digest(captured.out) == out_digest
    assert _kept_digest(captured.err) == err_digest
