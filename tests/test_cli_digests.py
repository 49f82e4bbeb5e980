"""Byte-identity gate for the CLI: sha256 digests of the output of a fixed
command matrix at weight 5.

Every basis kind and Σ route in every format, with symbolic q and with
q = 0, 1, -1, 1/2; both formats of `verify all`; the three word products
on four pairs; both formats of the Lyndon listing.  A change of
representation or of rendering that alters a single byte fails here; a
deliberate change of output re-records the affected digests and says
why."""

import hashlib

import pytest

from qstuffle import cli

N = "5"
QS = ((), ("--q", "0"), ("--q", "1"), ("--q", "-1"), ("--q", "1/2"))
FORMATS = ("text", "latex", "json")
PAIRS = (("2,1", "1"), ("1,1", "2,1"), ("e", "3,1"), ("1,2", "2,1,1"))


def _commands():
    out = []
    kinds = [("pi",), ("sigma", "--sigma-method", "oracle"),
             ("sigma", "--sigma-method", "recursive"),
             ("sigma", "--sigma-method", "both"), ("chi",), ("xi",)]
    for kind in kinds:
        for fmt in FORMATS:
            for q in QS:
                out.append(("basis",) + kind
                           + ("--max-weight", N, "--format", fmt) + q)
    for fmt in ("text", "json"):
        out.append(("verify", "all", "--max-weight", N, "--format", fmt))
    for kind in ("stuffle", "shuffle", "conc"):
        for u, v in PAIRS:
            for fmt in FORMATS:
                out.append(("product", kind, u, v, "--format", fmt))
    for fmt in ("text", "json"):
        out.append(("lyndon", "--max-weight", N, "--format", fmt))
    return [" ".join(c) for c in out]


COMMANDS = _commands()

DIGESTS = {
    'basis pi --max-weight 5 --format text':
        '57f348594920a2a8b394759dd344f884c6561deb93eec5792ed72833749796ba',
    'basis pi --max-weight 5 --format text --q 0':
        '06ca9e7e7e241136f848ac4a6b9f02e77cda78f98e546f312b697ecbfe4ad03c',
    'basis pi --max-weight 5 --format text --q 1':
        'edf884e812d7bd561a770238e5240a65dcf237ad325db1cc6d791f6a7876ccb8',
    'basis pi --max-weight 5 --format text --q -1':
        '8c461562b9b9ac0dcbb77832bd6ac9c564e8336b1c04f4d9e27aaa2a96023bd3',
    'basis pi --max-weight 5 --format text --q 1/2':
        '097fcccc275d2e8eb4342effa18fd2ebf058f3bf00efa185c3edc4a8815554d7',
    'basis pi --max-weight 5 --format latex':
        'afc7f7d35b5b2b5f373e339b422a5c91fcb726c06485cdcfdfd7930a343cf0f4',
    'basis pi --max-weight 5 --format latex --q 0':
        'aaef8a70c921894f8713d622824bd1362d68dbcfb8127f5e68526c1cdedc5870',
    'basis pi --max-weight 5 --format latex --q 1':
        '7b74a84dbe77f9f79cb64fb61d316ea6e41fe7ae8f428289ef2f7ffb3e4d9b2e',
    'basis pi --max-weight 5 --format latex --q -1':
        '6f48853f3884bb1ba982ce6b9a98649aacc60d7157bdbc51095564fe2f7a379d',
    'basis pi --max-weight 5 --format latex --q 1/2':
        '8791a7ae5c74baee15fbed654bbf4c4d97aa50091d78fb074ba972bf65e3d984',
    'basis pi --max-weight 5 --format json':
        'bda779db130dc7c1203a7849b8028d256fd729bd93d9e1d43f556723d2dbe92c',
    'basis pi --max-weight 5 --format json --q 0':
        'd7ab65849e8b29dada122bf7e5cf3c192bef36f49845f299b45cc1c3238919bd',
    'basis pi --max-weight 5 --format json --q 1':
        'c2ef094bf1024d0b3c2e9d0759fe491aada1791140fa5f1af3c27f8a30bd5d13',
    'basis pi --max-weight 5 --format json --q -1':
        'fe3666aa99f94d95f4dea9f0c20c79e8d3b309e96fe397457dccadc2a4f3d03c',
    'basis pi --max-weight 5 --format json --q 1/2':
        '0168984ccdcc2b0bd6e4a1a0773a5919ea0f611a99215c07df1230c44540a532',
    'basis sigma --sigma-method oracle --max-weight 5 --format text':
        '664d6ed2e5dd6fb51b80bc913713e3d209888b24407e01b0ada633c8f1846d0e',
    'basis sigma --sigma-method oracle --max-weight 5 --format text --q 0':
        '50da8b18a282f862083a4dc43c8ea2cf7875cd392be09dc944eab052b7894ab1',
    'basis sigma --sigma-method oracle --max-weight 5 --format text --q 1':
        '75e5a99bbbd6e69d8a27a9dcabb12096a2cc668a65883ae05c0f3b5b07d1d253',
    'basis sigma --sigma-method oracle --max-weight 5 --format text --q -1':
        '9614986732194d31c7fea6cc9c215cf32824c5f12a1c1691b1202e47da5c62db',
    'basis sigma --sigma-method oracle --max-weight 5 --format text --q 1/2':
        '5e268418509f4da22c2b28c7fceccda5b9c93e0aecdc33f57225a40e579df337',
    'basis sigma --sigma-method oracle --max-weight 5 --format latex':
        'd755bfd2aecabda058332811b0eb10fe38aac4dcbffa5b2a4809950577e93ccb',
    'basis sigma --sigma-method oracle --max-weight 5 --format latex --q 0':
        '5ad867399862d9ac95e8d467dfcce031d996c0e85c92b1e9e74ac60cca695d55',
    'basis sigma --sigma-method oracle --max-weight 5 --format latex --q 1':
        '5563e12732f365ea83a5f628c210668023707324163a049b4105c4ace444f01b',
    'basis sigma --sigma-method oracle --max-weight 5 --format latex --q -1':
        '5792916afd51af5d4c3856b78ef2ae20a3b1e487caf9cff34864b39028200e5d',
    'basis sigma --sigma-method oracle --max-weight 5 --format latex --q 1/2':
        '5ef1f940d9f923f624132211c0ae0fb437a85cb1d3427ea6b4314c42f420009d',
    'basis sigma --sigma-method oracle --max-weight 5 --format json':
        '3a48c6a96833543e3da78ea308a4a3bd3d5771345761ccd422527bdb90be1bf8',
    'basis sigma --sigma-method oracle --max-weight 5 --format json --q 0':
        '3bce3b45a58366363a3fa3c37932c971fbba5f207d1b06dc082ffe1060f9f122',
    'basis sigma --sigma-method oracle --max-weight 5 --format json --q 1':
        'f19f91d43579c3058e1c77c95fcee80afcf9d74ad9c3c0e9356715f2596b68bb',
    'basis sigma --sigma-method oracle --max-weight 5 --format json --q -1':
        '7f3aa6e294b389c3240a84f429e0040d82aeac6cf5469ba5808a4a3bdbcecad2',
    'basis sigma --sigma-method oracle --max-weight 5 --format json --q 1/2':
        '63ef5765d89e8431276ea9396c0b32dac11e9486ac7e22677d60324715cd3d4d',
    'basis sigma --sigma-method recursive --max-weight 5 --format text':
        '664d6ed2e5dd6fb51b80bc913713e3d209888b24407e01b0ada633c8f1846d0e',
    'basis sigma --sigma-method recursive --max-weight 5 --format text --q 0':
        '50da8b18a282f862083a4dc43c8ea2cf7875cd392be09dc944eab052b7894ab1',
    'basis sigma --sigma-method recursive --max-weight 5 --format text --q 1':
        '75e5a99bbbd6e69d8a27a9dcabb12096a2cc668a65883ae05c0f3b5b07d1d253',
    'basis sigma --sigma-method recursive --max-weight 5 --format text --q -1':
        '9614986732194d31c7fea6cc9c215cf32824c5f12a1c1691b1202e47da5c62db',
    'basis sigma --sigma-method recursive --max-weight 5 --format text --q 1/2':
        '5e268418509f4da22c2b28c7fceccda5b9c93e0aecdc33f57225a40e579df337',
    'basis sigma --sigma-method recursive --max-weight 5 --format latex':
        'd755bfd2aecabda058332811b0eb10fe38aac4dcbffa5b2a4809950577e93ccb',
    'basis sigma --sigma-method recursive --max-weight 5 --format latex --q 0':
        '5ad867399862d9ac95e8d467dfcce031d996c0e85c92b1e9e74ac60cca695d55',
    'basis sigma --sigma-method recursive --max-weight 5 --format latex --q 1':
        '5563e12732f365ea83a5f628c210668023707324163a049b4105c4ace444f01b',
    'basis sigma --sigma-method recursive --max-weight 5 --format latex --q -1':
        '5792916afd51af5d4c3856b78ef2ae20a3b1e487caf9cff34864b39028200e5d',
    'basis sigma --sigma-method recursive --max-weight 5 --format latex --q 1/2':
        '5ef1f940d9f923f624132211c0ae0fb437a85cb1d3427ea6b4314c42f420009d',
    'basis sigma --sigma-method recursive --max-weight 5 --format json':
        '3a48c6a96833543e3da78ea308a4a3bd3d5771345761ccd422527bdb90be1bf8',
    'basis sigma --sigma-method recursive --max-weight 5 --format json --q 0':
        '3bce3b45a58366363a3fa3c37932c971fbba5f207d1b06dc082ffe1060f9f122',
    'basis sigma --sigma-method recursive --max-weight 5 --format json --q 1':
        'f19f91d43579c3058e1c77c95fcee80afcf9d74ad9c3c0e9356715f2596b68bb',
    'basis sigma --sigma-method recursive --max-weight 5 --format json --q -1':
        '7f3aa6e294b389c3240a84f429e0040d82aeac6cf5469ba5808a4a3bdbcecad2',
    'basis sigma --sigma-method recursive --max-weight 5 --format json --q 1/2':
        '63ef5765d89e8431276ea9396c0b32dac11e9486ac7e22677d60324715cd3d4d',
    'basis sigma --sigma-method both --max-weight 5 --format text':
        '664d6ed2e5dd6fb51b80bc913713e3d209888b24407e01b0ada633c8f1846d0e',
    'basis sigma --sigma-method both --max-weight 5 --format text --q 0':
        '50da8b18a282f862083a4dc43c8ea2cf7875cd392be09dc944eab052b7894ab1',
    'basis sigma --sigma-method both --max-weight 5 --format text --q 1':
        '75e5a99bbbd6e69d8a27a9dcabb12096a2cc668a65883ae05c0f3b5b07d1d253',
    'basis sigma --sigma-method both --max-weight 5 --format text --q -1':
        '9614986732194d31c7fea6cc9c215cf32824c5f12a1c1691b1202e47da5c62db',
    'basis sigma --sigma-method both --max-weight 5 --format text --q 1/2':
        '5e268418509f4da22c2b28c7fceccda5b9c93e0aecdc33f57225a40e579df337',
    'basis sigma --sigma-method both --max-weight 5 --format latex':
        'd755bfd2aecabda058332811b0eb10fe38aac4dcbffa5b2a4809950577e93ccb',
    'basis sigma --sigma-method both --max-weight 5 --format latex --q 0':
        '5ad867399862d9ac95e8d467dfcce031d996c0e85c92b1e9e74ac60cca695d55',
    'basis sigma --sigma-method both --max-weight 5 --format latex --q 1':
        '5563e12732f365ea83a5f628c210668023707324163a049b4105c4ace444f01b',
    'basis sigma --sigma-method both --max-weight 5 --format latex --q -1':
        '5792916afd51af5d4c3856b78ef2ae20a3b1e487caf9cff34864b39028200e5d',
    'basis sigma --sigma-method both --max-weight 5 --format latex --q 1/2':
        '5ef1f940d9f923f624132211c0ae0fb437a85cb1d3427ea6b4314c42f420009d',
    'basis sigma --sigma-method both --max-weight 5 --format json':
        '3a48c6a96833543e3da78ea308a4a3bd3d5771345761ccd422527bdb90be1bf8',
    'basis sigma --sigma-method both --max-weight 5 --format json --q 0':
        '3bce3b45a58366363a3fa3c37932c971fbba5f207d1b06dc082ffe1060f9f122',
    'basis sigma --sigma-method both --max-weight 5 --format json --q 1':
        'f19f91d43579c3058e1c77c95fcee80afcf9d74ad9c3c0e9356715f2596b68bb',
    'basis sigma --sigma-method both --max-weight 5 --format json --q -1':
        '7f3aa6e294b389c3240a84f429e0040d82aeac6cf5469ba5808a4a3bdbcecad2',
    'basis sigma --sigma-method both --max-weight 5 --format json --q 1/2':
        '63ef5765d89e8431276ea9396c0b32dac11e9486ac7e22677d60324715cd3d4d',
    'basis chi --max-weight 5 --format text':
        '750a64ddbb844791bc2b7d03334ddc9cb3a42b6ac957d42684f18bc0a41c4083',
    'basis chi --max-weight 5 --format text --q 0':
        '0bf3d9070c8aac3088aba24d515f0bbb0c2eadd749b9e390a2e275c928e20f9c',
    'basis chi --max-weight 5 --format text --q 1':
        '42d8f1ad3daebbc787f731a51c23e062a2b0f164c557e4ac12be277b13298c8a',
    'basis chi --max-weight 5 --format text --q -1':
        '70c36f777e2cedee4932fd3db53163e6197106d35b0925903bf1676fd3db9346',
    'basis chi --max-weight 5 --format text --q 1/2':
        '55e1b0daee94568a1cab437aa3c9be1a34407494fa68e28ab59f1221389ce4c3',
    'basis chi --max-weight 5 --format latex':
        'cd2f37c77ad0de16fa8cb745b5918ef003c2f5d8c11174c12bbec25586b2676a',
    'basis chi --max-weight 5 --format latex --q 0':
        '8ecb275034833979d649a18da173ff9c065ee88333655db29c7e35371aaaa14c',
    'basis chi --max-weight 5 --format latex --q 1':
        'c9da2de9fc55ebc62c5af33fa8f4abf97c50239d3a4e9eeead58d4e3bcc80e83',
    'basis chi --max-weight 5 --format latex --q -1':
        'f1238eb538e671d219c86a1d493c486752bf61265e5008e83a9b01cd849bd708',
    'basis chi --max-weight 5 --format latex --q 1/2':
        'd83690e5ed3f47c939a1476f54942bc67dcc2439a1914c4cfc3daa447c0417e1',
    'basis chi --max-weight 5 --format json':
        'b35acf282d0c12c9aa639fd7595460e0a6ba0eb3212fa758112cfeb7ce64bda9',
    'basis chi --max-weight 5 --format json --q 0':
        'a14a5bdb9cb630d5d66b0c50bccac13756c5ff84be0a8dc6258f2be22ab7aa49',
    'basis chi --max-weight 5 --format json --q 1':
        'e4233561c57a3898fe9931b9eb7c7ad2f3aaae6515d6536bfcef50de02675770',
    'basis chi --max-weight 5 --format json --q -1':
        '87d3455a87707fae1b07416af56cdc8d9a947d9849e92531a4c7bd426d94ed93',
    'basis chi --max-weight 5 --format json --q 1/2':
        'f4e17021cef1f8e393be0683e6695b28295ec3f02b5b702f0b99a0b90e73d952',
    'basis xi --max-weight 5 --format text':
        '01fc131d4573aa49ed1c5b9a294c11106428e83f8ab33f0b323e2d9cc0148ee8',
    'basis xi --max-weight 5 --format text --q 0':
        '5ee4cb0c10dec41accb30a9312aadb22254f784b2c9ea0d3c2c4277e68cc249d',
    'basis xi --max-weight 5 --format text --q 1':
        '8959152537bc176ba6a04880eb58cb196a589ea72cfb4cf8c46e2ace0c51f92b',
    'basis xi --max-weight 5 --format text --q -1':
        '1497b4aed50332431fa32db79893e54c42da893cedfb63c44c610c3380c1049e',
    'basis xi --max-weight 5 --format text --q 1/2':
        '57d6c31218486b511b74b63c0dee038be2fefcfd186fb89068223f1509d182ba',
    'basis xi --max-weight 5 --format latex':
        '2ad0675dbd929bae5d090f0e28d0219630c6405b1b0c6ce31c2164456c1e717b',
    'basis xi --max-weight 5 --format latex --q 0':
        '4bb5d48c643e884caf1db4e108fe920d7ba9a876250485bb3b3808e4ce181755',
    'basis xi --max-weight 5 --format latex --q 1':
        '8e6f7453833ba59c17b897ced60f08e3901f7f7b82368a69ef81fdbef858f0a5',
    'basis xi --max-weight 5 --format latex --q -1':
        '774792444b9a09e1aa1af9ff95bbba7db574b8bd928299eacef75099009de74b',
    'basis xi --max-weight 5 --format latex --q 1/2':
        'e29cd29d76d8158fa086f254dcdb03921a3a88ec9a0fdb92b3db68d88193fee9',
    'basis xi --max-weight 5 --format json':
        'd6a155c94d6cffc1e119dff614e0c0d7fb3f69d55279ae6dce55691a01512ddf',
    'basis xi --max-weight 5 --format json --q 0':
        '4669f79207202930b98392de1c1388eb95e5a02f903280b9bb325ba04f3e34a0',
    'basis xi --max-weight 5 --format json --q 1':
        '9d39d02a7f103ff088c93ca209e72205edd3198ed1e69c6645d8f2326acb151d',
    'basis xi --max-weight 5 --format json --q -1':
        'c52ef625605cba51ad16ed3e62ec92612ffedb52c206a314e803be0df7ab2677',
    'basis xi --max-weight 5 --format json --q 1/2':
        '38fc803eeb38e99db65859fc62490b900d3cfe38d5a5d698154abcd71a428851',
    'verify all --max-weight 5 --format text':
        'aa53d6b37f961c7fa2e05bc3e4fef3bfabe3921b8528fbfdc1b3b37e7b775241',
    'verify all --max-weight 5 --format json':
        'e579f7d1b7e710f6d2a76f1f1aba0f52a8c17636d0ed34bd824a1972eb95027c',
    'product stuffle 2,1 1 --format text':
        '9ec580deec6faba1caefdee5e544c142b5e0bd40b888cf63d8c5c9b4adbe2633',
    'product stuffle 2,1 1 --format latex':
        '06ff8e041dd13dc77bcfa81c41e405318fafd8e21257c54fdfd2e887b6708096',
    'product stuffle 2,1 1 --format json':
        'c138e766e099569259e0112a60736771247c1d41c30f463ffe0a8cffca3c1cab',
    'product stuffle 1,1 2,1 --format text':
        '3883c6137cc129930c15c96ce46f29629c1abcdc84df9afa052d52ae998087f3',
    'product stuffle 1,1 2,1 --format latex':
        '42bcef28d80ffb5a04863df9cb340bcafefa77c39406181eaed5493636f924cc',
    'product stuffle 1,1 2,1 --format json':
        '7ebcca2c2e481aa50459b4ec23c569a0397c4ca4499ebf8e6c90f3239086c775',
    'product stuffle e 3,1 --format text':
        'bb611afa966234352c9c0eabbef1c34494f2de5a1b045234be2dc4e3072ba5cc',
    'product stuffle e 3,1 --format latex':
        'bc882fa4fe4e186853498f60c8ccbe754a2ae2a08a023d9df49efa9e06ecd1da',
    'product stuffle e 3,1 --format json':
        'a7e8b9282fb12382dd9df4856e4342b05a521e76bf7cb7efc83e37072a145c8f',
    'product stuffle 1,2 2,1,1 --format text':
        '6e680b3cd23d59a0bfd46e1bb7dc61eeae3ba85141f7c31c7a0532d1ff54d958',
    'product stuffle 1,2 2,1,1 --format latex':
        'f50b9acfe9334e195bad33672230f79897ef30fb126c88646a969a8274cabf6a',
    'product stuffle 1,2 2,1,1 --format json':
        '3469bfa075076517bcecf0ef4c30a3e9b71354e1098bb8368d374402a4dfc5c0',
    'product shuffle 2,1 1 --format text':
        'f13426f5e0cab6787979cf1d742a7516342e772d1a1622eae9312cb80a79ac5a',
    'product shuffle 2,1 1 --format latex':
        'aa683c8b62c304c61d8df55d6267c744865268431afb21d760eecfbd4ae989ae',
    'product shuffle 2,1 1 --format json':
        '572226bdac3acabe00e840491742ad587fc9f92059c1a531d7ba6e44fedc8bd4',
    'product shuffle 1,1 2,1 --format text':
        '9f61865b657753d4f41f1f28a90a82e2bd159f6b27c9db16baa7b901aa07053f',
    'product shuffle 1,1 2,1 --format latex':
        'aa34c63530de9af0680a23ad5b2bb6d4a0c50c2c5429d2938d6de3362e31a780',
    'product shuffle 1,1 2,1 --format json':
        'b8ac9256a53fba85cb5167df4d470466fd571829933ce694fffd8d55e0bc6a94',
    'product shuffle e 3,1 --format text':
        'bb611afa966234352c9c0eabbef1c34494f2de5a1b045234be2dc4e3072ba5cc',
    'product shuffle e 3,1 --format latex':
        'bc882fa4fe4e186853498f60c8ccbe754a2ae2a08a023d9df49efa9e06ecd1da',
    'product shuffle e 3,1 --format json':
        'a7e8b9282fb12382dd9df4856e4342b05a521e76bf7cb7efc83e37072a145c8f',
    'product shuffle 1,2 2,1,1 --format text':
        'e48b0f2d584f86394f6d9d80a51ff75393645c2c29064efda9b4dd1dcce3d3cf',
    'product shuffle 1,2 2,1,1 --format latex':
        '1efbe46517630a28219404482ba192e0ab7f2531dee2b16a83dad999833766a4',
    'product shuffle 1,2 2,1,1 --format json':
        'ee2179a2f73792153ce8c41c21a6671319bc019bbe9ae1ca2491c170fb0c546b',
    'product conc 2,1 1 --format text':
        'aace66dbc24d3300ad1be3d1e565315311fd9aed016a347d6f8f9f984d4c78ab',
    'product conc 2,1 1 --format latex':
        'f1e171770a4dd985f696f203566714a49a028ae0afd345a8dcfe02e56fbb5c4f',
    'product conc 2,1 1 --format json':
        '749010deffd3da9162bd3ca6d4c7e161e0351a7e5b5e0d124a452f77d02b4d8a',
    'product conc 1,1 2,1 --format text':
        'db8ffac36a0eeb95a21ac86b90c46e121253264c9056240123dc74534d5472df',
    'product conc 1,1 2,1 --format latex':
        '93b59012870b337c9c118262f75f62cd0ed788ec5ec7bf73111f3f26ad65d3b1',
    'product conc 1,1 2,1 --format json':
        '2fa3328ff6c6a031401ba820bb8b9e349f9eb5ce7e0dcaa9e440496a9671407b',
    'product conc e 3,1 --format text':
        'bb611afa966234352c9c0eabbef1c34494f2de5a1b045234be2dc4e3072ba5cc',
    'product conc e 3,1 --format latex':
        'bc882fa4fe4e186853498f60c8ccbe754a2ae2a08a023d9df49efa9e06ecd1da',
    'product conc e 3,1 --format json':
        'a7e8b9282fb12382dd9df4856e4342b05a521e76bf7cb7efc83e37072a145c8f',
    'product conc 1,2 2,1,1 --format text':
        '385797fb99ceb53c81368344b27ba317428024fb2202c0706a06688faa2cbb87',
    'product conc 1,2 2,1,1 --format latex':
        '1dd101d1eaf1a9559bde60f390a81d86af8983d53b0855c6a8296e4bffe0bcfa',
    'product conc 1,2 2,1,1 --format json':
        'ddbd1d81c4efae333445640c11c8e181a4e44812443739c7959b6fe2281ec942',
    'lyndon --max-weight 5 --format text':
        '12edad693dd4c5da24775478e253dc631c49f89a9803c167b8afeb360ab2e90d',
    'lyndon --max-weight 5 --format json':
        '60db02fddd3fe046f3fcb9ef515fda04f1909dea55c5ca23bed460244fd90a76',
}


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("digests") / "out"


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_digest(command, out_path):
    assert cli.main(command.split() + ["--out", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == \
        DIGESTS[command]
