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
fan      prevision_n3_general.json       auto   0 9a36dcb1f4183cecb17575faa0a0b501e603f02a1551bd802bb28d6671159000 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
fan      prevision_n3_general.json       walk   0 9a36dcb1f4183cecb17575faa0a0b501e603f02a1551bd802bb28d6671159000 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
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
graph    prevision_n3_general.json       auto   0 2e856636b8cd92f428bfacbd2a1d529eb7a7a9f9a53e755bc00a1f477b1e225b ab7f6004fdfa2373fc692f61c3bfb605a043c63cff4481ee0d03419531b9216e
graph    prevision_n3_general.json       walk   0 2e856636b8cd92f428bfacbd2a1d529eb7a7a9f9a53e755bc00a1f477b1e225b ab7f6004fdfa2373fc692f61c3bfb605a043c63cff4481ee0d03419531b9216e
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
    argv = [command, "--model", f"models/{name}", "--engine", engine]
    if command == "natex":
        gamble = Path("models/gamble_n3.json")
        if name in N10:
            gamble = tmp_path / "gamble_n10.json"
            gamble.write_text(json.dumps(GAMBLE_N10))
        argv += ["--gamble", str(gamble)]
    got = main(argv)
    captured = capsys.readouterr()
    assert got == code
    assert _kept_digest(captured.out) == out_digest
    assert _kept_digest(captured.err) == err_digest
